package server

import (
	"bytes"
	"testing"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// TestLogPressureCheckpointBacksOffWhenHeadIsPinned: once the log passes half
// full every commit used to take an early checkpoint. When something pins
// the head — here a long-running transaction's first record — that checkpoint
// reclaims nothing, so each later commit paid a full sharp checkpoint and
// added its record to the log it was meant to relieve. The trigger must
// re-arm only after real growth, and recover once the pin is gone.
func TestLogPressureCheckpointBacksOffWhenHeadIsPinned(t *testing.T) {
	s := New(Config{
		Mode:            ModeREDO,
		PoolPages:       64,
		LogCapacity:     1 << 20,
		CheckpointEvery: 1 << 30, // only log pressure triggers checkpoints
	})
	defer s.Close()
	sn := s.NewSession(nil, nil)
	half := s.log.Capacity() / 2
	checkpoints := func() int64 { return s.Stats().Checkpoints }

	// The pin: one logged update in a transaction that stays open.
	pinned, pslot := createPage(t, sn, []byte("pinned"))
	pinTID := sn.Begin()
	data, err := sn.ReadPage(pinTID, pinned, lock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	off, err := page.Wrap(data).ObjectOffset(pslot)
	if err != nil {
		t.Fatal(err)
	}
	rec := logrec.NewUpdate(pinTID, pinned, off, []byte("pinned"), []byte("PINNED"))
	if err := sn.ShipLog(pinTID, rec.Encode(nil)); err != nil {
		t.Fatal(err)
	}

	pid, slot := createPage(t, sn, []byte("value 00"))
	for s.log.Used() <= half {
		createPage(t, sn, []byte("filler"))
	}
	if checkpoints() == 0 {
		t.Fatal("crossing half full took no checkpoint")
	}
	if s.log.Used() <= half {
		t.Fatal("the open transaction did not pin the head")
	}

	before := checkpoints()
	for i := 0; i < 20; i++ {
		updateObject(t, sn, pid, slot, []byte{'v', 'a', 'l', 'u', 'e', ' ', byte('0' + i/10), byte('0' + i%10)}, true)
	}
	if got := checkpoints() - before; got > 2 {
		t.Fatalf("%d checkpoints in 20 commits with the head pinned, want <= 2", got)
	}

	// Real growth re-arms the trigger: another attempt is made...
	before = checkpoints()
	grown := s.log.End() + s.log.Capacity()/pressureRearmFraction
	for s.log.End() <= grown {
		createPage(t, sn, []byte("growth"))
	}
	if checkpoints() == before {
		t.Fatal("trigger never re-armed after the log grew by the re-arm fraction")
	}
	// ...and once the pin is gone the next one reclaims the log.
	if err := sn.Commit(pinTID); err != nil {
		t.Fatal(err)
	}
	grown = s.log.End() + s.log.Capacity()/pressureRearmFraction
	for s.log.End() <= grown && s.log.Used() > half {
		createPage(t, sn, []byte("relief"))
	}
	if s.log.Used() > half {
		t.Fatalf("log still %d bytes used (> half) after the pin was released", s.log.Used())
	}
	if got := readObject(t, sn, pid, slot, 8); !bytes.Equal(got, []byte("value 19")) {
		t.Fatalf("read back %q", got)
	}
}
