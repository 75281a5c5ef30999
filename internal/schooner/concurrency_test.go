package schooner

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npss/internal/trace"
	"npss/internal/uts"
)

// stressPolicy gives the concurrency tests a generous retry budget:
// Move and FlushCache deliberately make bindings stale under the
// callers' feet, and every caller must ride the rebind path through.
func stressPolicy() CallPolicy {
	return CallPolicy{
		Timeout:    250 * time.Millisecond,
		MaxRetries: 30,
		Backoff:    time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
	}
}

// TestConcurrentCallsOneLine is the race-stress regression for the
// lock restructuring: many goroutines hammer one line with synchronous
// calls, asynchronous calls, and cache flushes, all while the race
// detector watches. Before the fix, l.mu serialized every call across
// its full round trip; now the calls overlap and must still all return
// correct answers.
func TestConcurrentCallsOneLine(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.clientWith("avs-sparc", stressPolicy()).ContactSchx("stress")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a, b := float64(g), float64(i)
				var out []uts.Value
				var err error
				switch i % 4 {
				case 0, 1:
					out, err = ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
				case 2:
					out, err = ln.Go("add", uts.DoubleVal(a), uts.DoubleVal(b)).Wait()
				case 3:
					ln.FlushCache()
					out, err = ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
				}
				if err != nil {
					errs <- err
					return
				}
				if out[0].F != a+b {
					t.Errorf("goroutine %d call %d = %g, want %g", g, i, out[0].F, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent call failed: %v", err)
	}
}

// TestConcurrentCallsAcrossMoves keeps a mover relocating the
// procedure between two machines while callers hammer it: every caller
// must recover through the stale-cache rebind protocol, concurrently.
func TestConcurrentCallsAcrossMoves(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.clientWith("avs-sparc", stressPolicy()).ContactSchx("stress")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	stalesBefore := trace.Get("schooner.client.stale")
	var stop atomic.Bool
	var moves atomic.Int64
	var moverWG sync.WaitGroup
	moverWG.Add(1)
	go func() {
		defer moverWG.Done()
		homes := []string{"rs6000", "sgi-lerc"}
		for i := 0; !stop.Load(); i++ {
			if err := ln.Move("add", homes[i%2], false); err != nil {
				t.Errorf("move %d: %v", i, err)
				return
			}
			moves.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Callers run until several moves have landed (pipelined calls are
	// fast enough that a fixed iteration count can finish before the
	// first move), with a floor so every goroutine does real work.
	const goroutines = 6
	const minIters = 20
	const minMoves = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < minIters || moves.Load() < minMoves; i++ {
				a, b := float64(g), float64(i)
				out, err := ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
				if err != nil {
					t.Errorf("goroutine %d call %d failed across moves: %v", g, i, err)
					return
				}
				if out[0].F != a+b {
					t.Errorf("goroutine %d call %d = %g, want %g", g, i, out[0].F, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	moverWG.Wait()
	if trace.Get("schooner.client.stale") == stalesBefore {
		t.Error("no stale bindings detected despite concurrent moves")
	}
}

// TestConcurrentLinesOneClient opens several lines through one client
// and drives them from separate goroutines — the paper's "multiple
// independent threads of control" executing truly independently.
func TestConcurrentLinesOneClient(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	c := d.clientWith("avs-sparc", stressPolicy())

	const lines = 4
	var wg sync.WaitGroup
	for n := 0; n < lines; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			ln, err := c.ContactSchx("m")
			if err != nil {
				t.Errorf("line %d: %v", n, err)
				return
			}
			defer ln.IQuit()
			if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
				t.Errorf("line %d: %v", n, err)
				return
			}
			ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
			for i := 0; i < 20; i++ {
				out, err := ln.Call("add", uts.DoubleVal(float64(n)), uts.DoubleVal(float64(i)))
				if err != nil {
					t.Errorf("line %d call %d: %v", n, i, err)
					return
				}
				if out[0].F != float64(n+i) {
					t.Errorf("line %d call %d = %g", n, i, out[0].F)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// TestGoOverlapsCalls pins the point of the async API on the virtual
// clock, by equality: four Line.Go calls to a procedure overlap on the
// wire instead of paying four sequential round trips. On the 1 ms,
// 1.25 MB/s local Ethernet a warm call costs 2.1208 ms: both latencies
// plus its 108-byte request and 43-byte reply on the wire. Four in a
// row cost four of those, 8.4832 ms; four overlapped cost one plus the
// three later requests' 86.4 µs each behind the first, 2.38 ms.
func TestGoOverlapsCalls(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	// Bind once so the measured section is pure calls.
	if _, err := ln.Call("add", uts.DoubleVal(0), uts.DoubleVal(0)); err != nil {
		t.Fatal(err)
	}

	seqStart := v.Elapsed()
	for i := 0; i < 4; i++ {
		if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil {
			t.Fatal(err)
		}
	}
	seq := v.Elapsed() - seqStart

	parStart := v.Elapsed()
	var ps []*Pending
	for i := 0; i < 4; i++ {
		ps = append(ps, ln.Go("add", uts.DoubleVal(1), uts.DoubleVal(2)))
	}
	for _, p := range ps {
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out[0].F != 3 {
			t.Fatalf("async result = %g", out[0].F)
		}
	}
	par := v.Elapsed() - parStart

	const call, behind = 2120800 * time.Nanosecond, 86400 * time.Nanosecond
	if wantSeq, wantPar := 4*call, call+3*behind; seq != wantSeq || par != wantPar {
		t.Errorf("sequential %v, concurrent %v; want %v and %v", seq, par, wantSeq, wantPar)
	}
	if par >= seq {
		t.Errorf("async calls did not overlap: sequential %v, concurrent %v", seq, par)
	}
}
