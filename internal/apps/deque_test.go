package apps

import (
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestWSDequeValidation(t *testing.T) {
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, machine.Ideal(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWSDeque(mem, 0, 16); err == nil {
		t.Fatal("threads=0 accepted")
	}
	if _, err := NewWSDeque(mem, 4, dequeBufSlots+1); err == nil {
		t.Fatal("oversized depth accepted")
	}
}

// TestWSDequeRuns drives the deque through the app runner and checks
// the operation accounting: every completed Step is exactly one push,
// take, steal, or empty round.
func TestWSDequeRuns(t *testing.T) {
	var d *WSDeque
	res, err := Run(appCfg(machine.XeonE5(), 8, func(eng *sim.Engine, mem *atomics.Memory) App {
		var err error
		d, err = NewWSDeque(mem, 8, 64)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations measured")
	}
	pushes, takes, steals, empties := d.Stats()
	if pushes+takes+steals+empties != res.TotalOps {
		t.Fatalf("pushes %d + takes %d + steals %d + empties %d != total steps %d",
			pushes, takes, steals, empties, res.TotalOps)
	}
	if pushes == 0 || takes == 0 {
		t.Fatalf("owner path unused: pushes=%d takes=%d", pushes, takes)
	}
	if res.Attempts != d.Attempts() {
		t.Fatalf("RunResult.Attempts %d != deque attempts %d", res.Attempts, d.Attempts())
	}
}

// TestWSDequeSingleThread keeps one owner on its private lines: no
// steals are possible and every take after the seed drains hits the
// owner fast path or comes back empty.
func TestWSDequeSingleThread(t *testing.T) {
	var d *WSDeque
	res, err := Run(appCfg(machine.Ideal(1), 1, func(eng *sim.Engine, mem *atomics.Memory) App {
		var err error
		d, err = NewWSDeque(mem, 1, 32)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations measured")
	}
	if _, _, steals, _ := d.Stats(); steals != 0 {
		t.Fatalf("single thread stole %d times", steals)
	}
}
