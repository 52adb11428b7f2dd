package walstep

import "repro/internal/logrec"

// commit goes through the step. Clean.
func (s *srv) commit(tid logrec.TID) error {
	return s.logAndNote(logrec.NewCommit(tid))
}

// forget appends on its own: the tables never see the record.
func (s *srv) forget(tid logrec.TID) error {
	_, err := s.log.Append(logrec.NewEnd(tid)) // want "only through the logging step"
	return err
}

// decide reopens the window: the flag is cleared, and the decision entered,
// outside the section of any record.
func (s *srv) decide(tid logrec.TID) {
	s.attMu.Lock()
	s.att[tid].prepared = false                   // want "prepared flag changes only in tables.note"
	s.decided[tid] = decidedTxn{lsn: uint64(tid)} // want "entered only by tables.note"
	s.attMu.Unlock()
}

// shipRun appends a shipped page's run on its own: the tables never see it.
func (s *srv) shipRun(recs []logrec.Record, prev uint64) error {
	_, err := s.log.AppendRun(recs, prev) // want "only through the logging step"
	return err
}
