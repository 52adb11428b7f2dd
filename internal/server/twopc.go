package server

// Presumed-abort two-phase commit, participant and coordinator sides
// (DESIGN.md §16). Every shard runs this same code; a cross-shard
// transaction's coordinator shard additionally logs the DECIDE record that is
// the transaction's commit point and keeps the decided-transactions map that
// answers recovery resolution.
//
// Protocol, as driven by the router (internal/shard):
//
//	phase 1: Prepare on every participant — each forces a PREPARE record
//	         (carrying coordinator + participant set) before voting yes.
//	phase 2: Decide(commit) on the coordinator first — logDecision forces the
//	         DECIDE record, the commit point — then on the other participants;
//	         finally Forget on the coordinator once all have committed.
//	abort:   Decide(abort) everywhere; nothing is logged for the decision
//	         itself (presumed abort), the branches just roll back.
//
// A branch that crashes between Prepare and Decide restarts in doubt: restart
// resurrects its ATT entry with locks held (resurrectInDoubt), and
// ResolveInDoubt answers the router's recovery resolution — present in
// decided means commit, absent means presumed abort.

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// decidedTxn is a coordinator-side commit decision awaiting the forget
// protocol: the DECIDE record is stable, and the entry survives until every
// participant has confirmed its commit (Forget). Guarded by decMu.
type decidedTxn struct {
	lsn   uint64 // location of the DECIDE record
	parts []int  // participant set, echoed to resolution callers
}

// InDoubtTxn describes one prepared-but-unresolved transaction branch, as
// reported by qsctl 2pc-status.
type InDoubtTxn struct {
	TID         logrec.TID
	Coordinator int
	Age         time.Duration
}

// Prepare votes yes on behalf of tid's branch: the PREPARE record (carrying
// the coordinator identity and participant set) is appended and forced before
// the call returns, so a yes vote survives any crash. From here until Decide
// the branch is in doubt — it holds its locks and refuses unilateral
// Commit/Abort. Idempotent under re-delivery.
func (sn *Session) Prepare(tid logrec.TID, coordinator int, participants []int) error {
	s := sn.s
	if s.standby.Load() {
		return ErrStandby
	}
	exit := s.enter()
	t, ok := s.lookupTxn(tid)
	if !ok {
		exit()
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	if t.prepared {
		exit()
		return nil // re-delivered vote request; the first force stands
	}
	p := logrec.NewPrepare(tid, coordinator, participants)
	p.PrevLSN = t.lastLSN
	// Stamped before note marks the branch prepared: InDoubt reads the time of
	// prepared branches only, under the attMu the marking happens in.
	//qslint:allow determinism: in-doubt age reporting only (qsctl 2pc-status); never logged, no control flow depends on it
	t.prepTime = time.Now()
	if err := s.logAndNote(p, false); err != nil {
		exit()
		return err
	}
	// The yes vote must be stable before it is uttered: join a group-commit
	// sync exactly as a commit force does.
	sn.commitWait(p)
	atomic.AddInt64(&s.stats.TwoPCPrepares, 1)
	exit()
	return nil
}

// Decide delivers the coordinator's outcome to tid's branch on this shard.
// On the coordinator shard a commit decision first logs and forces the DECIDE
// record (the transaction's commit point) and enters it in the decided map;
// then — on every shard — the branch finishes through the normal commit or
// abort path, releasing its locks. The branch stays prepared until the Commit
// or Abort record's own note settles it, so a checkpoint sees it in doubt or
// sees the logged outcome, never a decided branch that looks like a loser
// (DESIGN.md §2.5). Idempotent: deciding a finished branch is a no-op, so the
// router may re-deliver after partial failures — but "finished" is answered
// only once the outcome is durable: the ATT entry retires with the commit
// record's append, before its force, and the router takes a nil here as leave
// to forget the decision.
func (sn *Session) Decide(tid logrec.TID, commit bool) error {
	s := sn.s
	if s.standby.Load() {
		return ErrStandby
	}
	if !commit {
		if err := sn.abort(tid, true); !errors.Is(err, ErrNoTxn) {
			return err
		}
		return nil // branch already finished; re-delivery
	}
	if err := sn.logDecision(tid); err != nil {
		return err
	}
	if err := sn.commit(tid, true); !errors.Is(err, ErrNoTxn) {
		return err
	}
	// Branch already finished; re-delivery. An earlier delivery may still be
	// waiting for the log's sync with the commit record unforced: wait with it.
	defer s.enter()()
	sn.m.Add(costmodel.LogForce, s.log.CommitWait(s.log.End()))
	return nil
}

// logDecision makes tid's commit decision stable if this shard is its
// coordinator and the decision is not already on record. The forced DECIDE
// record is the commit point of the whole cross-shard transaction.
func (sn *Session) logDecision(tid logrec.TID) error {
	s := sn.s
	defer s.enter()()
	t, ok := s.lookupTxn(tid)
	if !ok || !t.prepared || t.coord != s.cfg.ShardID {
		// Not ours to decide (participant shard), not prepared (single-shard
		// fast path), or already finished — nothing to log.
		return nil
	}
	// The DECIDE record is deliberately NOT chained into the branch's PrevLSN
	// chain: the decision's own life cycle is the decided map + forget End,
	// not the undo chain.
	d := logrec.NewDecide(tid, t.coord, t.parts)
	d.PrevLSN = logrec.NoLSN
	logged, err := s.logAndNoteIf(d, false, func() bool { _, done := s.decided[tid]; return !done })
	if logged {
		sn.commitWait(d)
	}
	return err
}

// Forget ends the presumed-abort forget protocol for a decided transaction:
// once every participant has confirmed its commit, the coordinator logs an
// End and drops the decided entry, so resolution state cannot grow without
// bound. The End is not forced — losing it merely resurrects the decided
// entry at restart, and a later resolution or Forget retires it again
// (idempotent). A no-op for unknown tids.
func (sn *Session) Forget(tid logrec.TID) error {
	s := sn.s
	if s.standby.Load() {
		return ErrStandby
	}
	defer s.enter()()
	e := logrec.NewEnd(tid)
	e.PrevLSN = logrec.NoLSN
	_, err := s.logAndNoteIf(e, false, func() bool { _, ok := s.decided[tid]; return ok })
	return err
}

// ResolveInDoubt answers a recovery-resolution request for tid, asked of the
// coordinator shard by (or on behalf of) an in-doubt participant: commit if
// the decision is on record, presumed abort otherwise. Pure lookup — safe to
// re-ask any number of times.
func (sn *Session) ResolveInDoubt(tid logrec.TID) (commit bool, participants []int, err error) {
	s := sn.s
	if s.standby.Load() {
		return false, nil, ErrStandby
	}
	defer s.enter()()
	atomic.AddInt64(&s.stats.TwoPCResolutions, 1)
	s.decMu.Lock()
	d, ok := s.decided[tid]
	s.decMu.Unlock()
	if ok {
		return true, append([]int(nil), d.parts...), nil
	}
	atomic.AddInt64(&s.stats.TwoPCPresumedAborts, 1)
	return false, nil, nil
}

// InDoubt lists the prepared-but-unresolved transaction branches on this
// shard, sorted by TID (qsctl 2pc-status).
func (s *Server) InDoubt() []InDoubtTxn {
	s.attMu.Lock()
	var out []InDoubtTxn
	for _, t := range s.att {
		if t.prepared {
			out = append(out, InDoubtTxn{
				TID:         t.tid,
				Coordinator: t.coord,
				//qslint:allow determinism: in-doubt age reporting only (qsctl 2pc-status); never logged, no control flow depends on it
				Age: time.Since(t.prepTime),
			})
		}
	}
	s.attMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// resurrectInDoubt re-acquires the exclusive page locks of an in-doubt branch
// restart analysis left in the ATT, before new sessions are admitted, so the
// branch keeps isolating its uncommitted pages
// (redo-reapplied, or under WPL off their permanent locations) until
// resolution. Analysis, which scanned from start, has noted in t.pageLSN every
// page the branch logged inside that window or a checkpoint's WPL table
// names; for a branch that began below it, seeded from the checkpoint's ATT
// and 2PC trailer, the rest of the page set is rebuilt by walking its PrevLSN
// chain — every record of an active branch is at or above the truncation
// head, so the walk cannot fall off the log. Caller holds gate.W, so every
// lock acquisition is immediate.
func (s *Server) resurrectInDoubt(t *txn, start uint64) error {
	cur := logrec.NoLSN
	if t.firstLSN < start {
		cur = t.lastLSN
	}
	var scratch []byte
	for cur != logrec.NoLSN {
		r, err := s.log.ReadAt(cur, &scratch)
		if err != nil {
			return fmt.Errorf("server: in-doubt %v page walk at %d: %w", t.tid, cur, err)
		}
		switch r.Type {
		case logrec.TypeUpdate, logrec.TypePageImage, logrec.TypeCLR:
			if _, ok := t.pageLSN[r.Page]; !ok {
				t.pageLSN[r.Page] = r.LSN // newest first: keep the first seen
			}
		}
		cur = r.PrevLSN
		if r.Type == logrec.TypeCLR {
			// Partial rollback before the prepare: the CLR's page matches the
			// undone update's, so recording it and skipping via UndoNext still
			// covers every touched page.
			cur = r.UndoNext
		}
	}
	s.attMu.Lock()
	//qslint:allow determinism: in-doubt age reporting only (qsctl 2pc-status); never logged, no control flow depends on it
	t.prepTime = time.Now()
	s.attMu.Unlock()
	pids := make([]page.ID, 0, len(t.pageLSN))
	for pid := range t.pageLSN {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		if err := s.locks.Lock(t.tid, pid, lock.Exclusive); err != nil {
			return fmt.Errorf("server: relocking in-doubt %v on %v: %w", t.tid, pid, err)
		}
	}
	return nil
}
