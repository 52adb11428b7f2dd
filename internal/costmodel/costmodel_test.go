package costmodel

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNetMsgTime(t *testing.T) {
	p := Default1995()
	small := p.NetMsgTime(100)
	big := p.NetMsgTime(8192)
	if small <= p.NetFixed {
		t.Fatalf("small message %v not above fixed cost", small)
	}
	if big <= small {
		t.Fatal("page message not more expensive than small message")
	}
	// An 8 KB page on ~1 MB/s effective Ethernet should take several ms.
	if big < 5*time.Millisecond || big > 25*time.Millisecond {
		t.Fatalf("page transfer time %v outside plausible 1995 range", big)
	}
}

func TestDefaultRatios(t *testing.T) {
	p := Default1995()
	if p.DataDiskRead <= p.LogDiskWrite {
		t.Fatal("random data read should cost more than sequential log write")
	}
	if p.CopyPage >= p.DiffPage {
		t.Fatal("diffing a page should cost more than copying it")
	}
	if p.CopyBlock >= p.CopyPage {
		t.Fatal("block copy should be cheaper than page copy")
	}
	if p.UpdateCall <= 0 {
		t.Fatal("update call must have a cost (the SD/SL tradeoff)")
	}
}

func TestSimMeterChargesResources(t *testing.T) {
	k := sim.New()
	p := Default1995()
	tb := NewTestbed(k, p)
	cpu := k.NewResource("client0-cpu")
	var elapsed time.Duration
	k.Spawn("client", func(proc *sim.Proc) {
		m := tb.Meter(proc, cpu)
		m.Add(Visit, 40) // 40 × 25µs = 1 ms
		m.Add(MsgToServer, 8192)
		m.Add(LogForce, 2)
		m.Add(DataRead, 1)
		m.Flush()
		elapsed = proc.Now()
	})
	k.Run()
	if cpu.BusyTime() == 0 || tb.Net.BusyTime() == 0 || tb.ServerCPU.BusyTime() == 0 {
		t.Fatal("resources not charged")
	}
	wantMin := time.Millisecond + p.NetMsgTime(8192) + 2*p.LogDiskWrite + p.DataDiskRead
	if elapsed < wantMin {
		t.Fatalf("elapsed %v < serial minimum %v", elapsed, wantMin)
	}
}

func TestSimMeterAsyncDoesNotBlock(t *testing.T) {
	k := sim.New()
	tb := NewTestbed(k, Default1995())
	cpu := k.NewResource("cpu")
	var elapsed time.Duration
	k.Spawn("client", func(proc *sim.Proc) {
		m := tb.Meter(proc, cpu)
		m.Add(DataWriteAsync, 100)
		m.Add(LogReadAsync, 10)
		elapsed = proc.Now()
	})
	k.Run()
	if elapsed != 0 {
		t.Fatalf("async work blocked the caller: %v", elapsed)
	}
	if tb.DataDisk.Uses() != 100 || tb.LogDisk.Uses() != 10 {
		t.Fatal("async work not reserved")
	}
}

func TestTwoClientsContendOnServer(t *testing.T) {
	k := sim.New()
	p := Default1995()
	p.ServerApply = time.Millisecond
	tb := NewTestbed(k, p)
	var ends [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		cpu := k.NewResource("cpu")
		k.Spawn("client", func(proc *sim.Proc) {
			m := tb.Meter(proc, cpu)
			m.Add(ServerApply, 10) // 10 × 1 ms
			m.Flush()
			ends[i] = proc.Now()
		})
	}
	k.Run()
	if ends[0] != 10*time.Millisecond || ends[1] != 20*time.Millisecond {
		t.Fatalf("server CPU did not serialize: %v", ends)
	}
}

func TestNopMeterIsFree(t *testing.T) {
	var m NopMeter
	for e := Event(0); e < NumEvents; e++ {
		m.Add(e, 1<<20)
	}
}

// TestEventPricing: each CPU event costs n times its Params field, on the
// client's CPU for the client events and on the server's for the rest.
func TestEventPricing(t *testing.T) {
	p := Default1995()
	for e := Event(0); e < MsgToServer; e++ {
		k := sim.New()
		tb := NewTestbed(k, p)
		cpu := k.NewResource("cpu")
		k.Spawn("client", func(proc *sim.Proc) {
			m := tb.Meter(proc, cpu)
			m.Add(e, 3)
			m.Flush()
		})
		k.Run()
		onClient, onServer := cpu.BusyTime(), tb.ServerCPU.BusyTime()
		if e >= ServerPage {
			onClient, onServer = onServer, onClient
		}
		if onClient != 3*p.cpuTime(e) || onServer != 0 {
			t.Errorf("event %d: charged %v on its CPU and %v on the other, want %v and 0", e, onClient, onServer, 3*p.cpuTime(e))
		}
	}
}
