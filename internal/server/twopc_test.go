package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/logrec"
)

// TestDecideRacesCheckpoint: a prepared branch whose commit decision is on
// record is never rolled back, whatever checkpoints and crash land inside
// Decide. Each round prepares a branch writing a new value, then runs
// Decide(commit) against a goroutine that takes one to three checkpoints and
// crashes the server; after restart the branch is committed or in doubt —
// never a loser — and resolution through the coordinator's own answer yields
// the new value whenever the decision was logged. The state this guards against
// (DECIDE forced, prepared flag cleared on its own, a checkpoint, a crash
// before the commit record) cannot be built by hand any more: the flag changes
// only in the commit record's own critical section (DESIGN.md §2.5).
func TestDecideRacesCheckpoint(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 40
	}
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		for _, fuzzy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/fuzzy=%v", mode, fuzzy), func(t *testing.T) {
				s, sn := newTestServer(t, mode)
				defer s.Close()
				pid, slot := createPage(t, sn, []byte("old"))
				cur := "old"
				inDoubt, presumedAbort := 0, 0
				for round := 0; round < rounds; round++ {
					val := fmt.Sprintf("n%02d", round%100)
					tid := updateObject(t, sn, pid, slot, []byte(val), false)
					if err := sn.Prepare(tid, 0, []int{0, 1}); err != nil {
						t.Fatal(err)
					}

					var racing sync.WaitGroup
					racing.Add(2)
					go func() {
						defer racing.Done()
						// An error here is the crash overtaking the call.
						_ = s.NewSession(nil, nil).Decide(tid, true)
					}()
					go func() {
						defer racing.Done()
						// The crash follows a checkpoint at once — the pair the window
						// needed — and no checkpoint runs on the crashed server, which
						// would log the emptied tables as if they were recovered state.
						csn := s.NewSession(nil, nil)
						ckpt := csn.Checkpoint
						if fuzzy {
							ckpt = func() error { return fuzzyCheckpoint(csn) }
						}
						for i := 0; i < 1+round%3; i++ {
							_ = ckpt()
						}
						s.Crash()
					}()
					racing.Wait()
					if err := sn.Restart(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}

					commit, _, err := sn.ResolveInDoubt(tid)
					if err != nil {
						t.Fatal(err)
					}
					switch in := s.InDoubt(); {
					case len(in) == 1 && in[0].TID == tid:
						inDoubt++
						if !commit {
							presumedAbort++ // the crash beat the DECIDE record
						}
						if err := sn.Decide(tid, commit); err != nil {
							t.Fatalf("round %d: resolving: %v", round, err)
						}
					case len(in) != 0:
						t.Fatalf("round %d: in doubt %+v, want at most %v", round, in, tid)
					default:
						commit = true // not in doubt: the commit record must have been stable
					}
					if commit {
						cur = val
					}
					if got := readObject(t, sn, pid, slot, len(cur)); string(got) != cur {
						t.Fatalf("round %d: page reads %q, want %q (decision on record: %v): a prepared branch was rolled back", round, got, cur, commit)
					}
					if err := sn.Forget(tid); err != nil {
						t.Fatal(err)
					}
				}
				t.Logf("%d rounds: %d restarted in doubt (%d of them before the decision was logged), %d committed", rounds, inDoubt, presumedAbort, rounds-inDoubt)
			})
		}
	}
}

// TestRedeliveredDecideWaitsForTheCommitRecord: the branch's ATT entry retires
// with the commit record's append, before its force, so a Decide re-delivered
// while the first delivery is parked on the group-commit flusher finds the
// branch finished. It must not say so before the commit record is stable: the
// router takes the answer as leave to Forget the decision, and a crash would
// then find the branch in doubt with nothing left to resolve it but presumed
// abort.
func TestRedeliveredDecideWaitsForTheCommitRecord(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			defer s.Close()
			pid, slot := createPage(t, sn, []byte("old"))
			tid := updateObject(t, sn, pid, slot, []byte("new"), false)
			s.log.SetGroupCommitDelay(100 * time.Millisecond)
			if err := sn.Prepare(tid, 0, []int{0, 1}); err != nil {
				t.Fatal(err)
			}
			first := make(chan error, 1)
			go func() { first <- s.NewSession(nil, nil).Decide(tid, true) }()
			// The entry leaves the ATT in the commit append's section: from then on
			// the first delivery is waiting for the flusher.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if _, ok := s.lookupTxn(tid); !ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the first Decide never logged its commit record")
				}
			}
			commitEnd := s.log.End()
			if s.log.StableEnd() >= commitEnd {
				t.Skip("the commit record was forced before the re-delivery could race it")
			}
			if err := sn.Decide(tid, true); err != nil {
				t.Fatal(err)
			}
			if stable := s.log.StableEnd(); stable < commitEnd {
				t.Errorf("re-delivered Decide answered with the log stable to %d, commit record ending at %d", stable, commitEnd)
			}
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			if got := readObject(t, sn, pid, slot, 3); string(got) != "new" {
				t.Errorf("page reads %q, want %q", got, "new")
			}
		})
	}
}

// TestDecideRacesItsRedelivery: concurrent deliveries of one decision, then of
// its forget, log one DECIDE and one End — the "already on record" check and
// the append are one critical section (logAndNoteIf) — and leave no decided
// entry behind for a late duplicate to re-enter.
func TestDecideRacesItsRedelivery(t *testing.T) {
	s, sn := newTestServer(t, ModeESM)
	defer s.Close()
	pid, slot := createPage(t, sn, []byte("old"))
	start := s.log.End()
	tid := updateObject(t, sn, pid, slot, []byte("new"), false)
	if err := sn.Prepare(tid, 0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	deliver := func(op func(*Session) error) {
		t.Helper()
		errs := make(chan error, 8)
		for i := 0; i < cap(errs); i++ {
			go func() { errs <- op(s.NewSession(nil, nil)) }()
		}
		for i := 0; i < cap(errs); i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
	deliver(func(sn *Session) error { return sn.Decide(tid, true) })
	deliver(func(sn *Session) error { return sn.Forget(tid) })
	count := map[logrec.Type]int{}
	if err := s.log.Scan(start, func(r *logrec.Record) bool {
		if r.TID == tid {
			count[r.Type]++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count[logrec.TypeDecide] != 1 || count[logrec.TypeEnd] != 1 {
		t.Errorf("logged %d DECIDE and %d End records, want one of each", count[logrec.TypeDecide], count[logrec.TypeEnd])
	}
	if commit, _, _ := sn.ResolveInDoubt(tid); commit {
		t.Error("the decision is still on record after Forget")
	}
	if got := readObject(t, sn, pid, slot, 3); string(got) != "new" {
		t.Errorf("page reads %q, want %q", got, "new")
	}
}
