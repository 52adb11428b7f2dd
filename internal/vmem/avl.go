package vmem

// The paper's in-memory page-descriptor table is "a height balanced binary
// tree" keyed by virtual-frame address (§3.2.1); this file implements that
// AVL tree. Lookups locate the descriptor whose frame contains a faulting
// address via a floor search.

type avlNode struct {
	key         uint64
	desc        *Desc
	left, right *avlNode
	height      int
}

func height(n *avlNode) int {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *avlNode) *avlNode {
	n.height = 1 + max(height(n.left), height(n.right))
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *avlNode) *avlNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max(height(n.left), height(n.right))
	l.height = 1 + max(height(l.left), height(l.right))
	return l
}

func rotateLeft(n *avlNode) *avlNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max(height(n.left), height(n.right))
	r.height = 1 + max(height(r.left), height(r.right))
	return r
}

func insert(n *avlNode, key uint64, d *Desc) *avlNode {
	if n == nil {
		return &avlNode{key: key, desc: d, height: 1}
	}
	switch {
	case key < n.key:
		n.left = insert(n.left, key, d)
	case key > n.key:
		n.right = insert(n.right, key, d)
	default:
		n.desc = d
		return n
	}
	return fix(n)
}

func remove(n *avlNode, key uint64) *avlNode {
	if n == nil {
		return nil
	}
	switch {
	case key < n.key:
		n.left = remove(n.left, key)
	case key > n.key:
		n.right = remove(n.right, key)
	default:
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		// Replace with in-order successor.
		s := n.right
		for s.left != nil {
			s = s.left
		}
		n.key, n.desc = s.key, s.desc
		n.right = remove(n.right, s.key)
	}
	return fix(n)
}

// floor returns the node with the greatest key <= key.
func floor(n *avlNode, key uint64) *avlNode {
	var best *avlNode
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			best = n
			n = n.right
		default:
			return n
		}
	}
	return best
}

func countNodes(n *avlNode) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}
