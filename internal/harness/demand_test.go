package harness

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/oo7"
	"repro/internal/sim"
)

// countingMeter totals each event's counts and calls, then passes the event
// on to next.
type countingMeter struct {
	next   costmodel.Meter
	totals [costmodel.NumEvents]int64
	calls  [costmodel.NumEvents]int64
}

func (m *countingMeter) Add(e costmodel.Event, n int) {
	m.totals[e] += int64(n)
	m.calls[e]++
	m.next.Add(e, n)
}

// demandRun builds spec's server and database afresh and returns a function
// that runs one T2A, T2B and T2C on module 0 through a client whose every
// event is counted on the way to next.
func demandRun(t *testing.T, spec SystemSpec, o Options) func(next costmodel.Meter) (*countingMeter, error) {
	srv, db, err := buildSystem(spec, oo7.SmallConfig(), o)
	if err != nil {
		t.Fatal(err)
	}
	return func(next costmodel.Meter) (*countingMeter, error) {
		m := &countingMeter{next: next}
		cli := newClient(spec, srv, m, o)
		for _, tr := range []oo7.Traversal{oo7.T2A, oo7.T2B, oo7.T2C} {
			if _, err := oo7.Run(cli, &db.Modules[0], tr, m, nil); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
}

// TestDemandVectors: the simulator and a real in-process run of one seeded
// T2A/T2B/T2C mix report the same events with the same counts, per scheme.
// It is the same engine code either way, so a difference means the simulated
// run takes a path the real one does not, or that an event depends on the
// meter behind it.
func TestDemandVectors(t *testing.T) {
	o := Options{Scale: 25}.withDefaults()
	for _, spec := range unconstrainedSystems(true) {
		simRun, realRun := demandRun(t, spec, o), demandRun(t, spec, o)
		var simulated *countingMeter
		var simErr error
		k := sim.New()
		tb := costmodel.NewTestbed(k, o.Params)
		cpu := k.NewResource("client0-cpu")
		k.Spawn("client0", func(proc *sim.Proc) {
			sm := tb.Meter(proc, cpu)
			simulated, simErr = simRun(sm)
			sm.Flush()
		})
		k.Run()
		real, err := realRun(costmodel.NopMeter{})
		if simErr != nil || err != nil {
			t.Fatalf("%s: simulated run: %v; real run: %v", spec.Name, simErr, err)
		}
		if tb.ServerCPU.BusyTime() == 0 || cpu.BusyTime() == 0 {
			t.Fatalf("%s: the simulated run charged no CPU", spec.Name)
		}
		for e := costmodel.Event(0); e < costmodel.NumEvents; e++ {
			if simulated.totals[e] != real.totals[e] || simulated.calls[e] != real.calls[e] {
				t.Errorf("%s event %d: simulated %d in %d calls, real %d in %d calls", spec.Name, e,
					simulated.totals[e], simulated.calls[e], real.totals[e], real.calls[e])
			}
		}
		for _, e := range []costmodel.Event{costmodel.Visit, costmodel.LockReq, costmodel.MsgToServer, costmodel.LogForce} {
			if real.calls[e] == 0 {
				t.Errorf("%s: no event %d reported", spec.Name, e)
			}
		}
	}
}
