// fixture-path: repro/internal/server/walstep
//
// The logging step (DESIGN.md §2.5): inside internal/server a record enters
// the log through logAndNote — or checkpointCore, for the checkpoint record —
// and a branch's prepared flag and the decided map change only in replay.go,
// where note lives. This file is the fixture's replay.go: everything in it is
// clean.
package walstep

import (
	"sync"

	"repro/internal/logrec"
	"repro/internal/wal"
)

type txn struct{ prepared bool }

type decidedTxn struct{ lsn uint64 }

type srv struct {
	attMu   sync.Mutex
	log     *wal.Log
	att     map[logrec.TID]*txn
	decided map[logrec.TID]decidedTxn
}

func (s *srv) note(r *logrec.Record) {
	switch r.Type {
	case logrec.TypePrepare:
		s.att[r.TID].prepared = true
	case logrec.TypeDecide:
		s.decided[r.TID] = decidedTxn{lsn: r.LSN}
	}
}

// logAndNoteIf is the step: precondition, append and note in one attMu
// section. Clean.
func (s *srv) logAndNoteIf(r *logrec.Record, pre func() bool) (bool, error) {
	s.attMu.Lock()
	defer s.attMu.Unlock()
	if pre != nil && !pre() {
		return false, nil
	}
	if _, err := s.log.Append(r); err != nil {
		return false, err
	}
	s.note(r)
	return true, nil
}

func (s *srv) logAndNote(r *logrec.Record) error {
	_, err := s.logAndNoteIf(r, nil)
	return err
}

// logAndNoteRun is the step for a run of records. Clean.
func (s *srv) logAndNoteRun(recs []logrec.Record, prev uint64) error {
	s.attMu.Lock()
	defer s.attMu.Unlock()
	if _, err := s.log.AppendRun(recs, prev); err != nil {
		return err
	}
	for i := range recs {
		s.note(&recs[i])
	}
	return nil
}
