package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"npss/internal/engine"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/uts"
	"npss/internal/wal"
)

// ctl-churn: reads beside writes on the Manager's name database and
// its journal.

const (
	residentLines = 128
	// Per block of 100 control-plane operations.
	churnLookups = 70 // FlushCache + Call: a read of the name database
	churnCycles  = 20 // register -> StartRemote -> call -> IQuit: writes
	churnMoves   = 10 // Move between the two machines -> first good call
)

// outDir holds what the benchmark writes: traces and the Manager's
// journal. It is inside the checkout and ignored by git.
const outDir = "bench/out"

var churnMachines = []string{"m1", "m2"}

// setductArgs is the call every control-plane operation ends in, with
// the answer the duct-sizing procedure must give.
var setductArgs = []uts.Value{uts.DoubleVal(40), uts.DoubleVal(3e5), uts.DoubleVal(450), uts.DoubleVal(0), uts.DoubleVal(1e4)}

// churnMix is one block of operations before shuffling.
var churnMix = strings.Repeat("L", churnLookups) + strings.Repeat("C", churnCycles) + strings.Repeat("M", churnMoves)

// churnCaller is one closed-loop operator: its own client, its share
// of the resident lines to look up, one resident line it migrates, and
// its seeded order of operations.
type churnCaller struct {
	client  *schooner.Client
	ctx     *traceCtx
	readers []*schooner.Line
	mover   *schooner.Line
	moverAt int // index into churnMachines
	rng     *rand.Rand
	block   []byte
	next    int
}

type churn struct {
	net     *netsim.Network
	dep     *deployment
	walDir  string
	want    float64
	callers []*churnCaller
}

func setupChurn(seed int64, tr *tracer) (instance, error) {
	want, err := engine.DuctSizeK(40, 3e5, 450, 0, 1e4)
	if err != nil {
		return nil, err
	}
	net := netsim.New()
	for name, arch := range map[string]*machine.Arch{"ws": machine.SPARC, "m1": machine.SGI, "m2": machine.RS6000} {
		if _, err := net.AddHost(name, arch); err != nil {
			return nil, err
		}
	}
	// The journal is configured as `schooner-manager -wal dir` does.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return nil, err
	}
	backend, err := wal.NewFileBackend(walDir)
	if err != nil {
		return nil, err
	}
	journal, err := wal.Open(backend, wal.Options{})
	if err != nil {
		return nil, err
	}
	sim := schooner.NewSimTransport(net)
	dep, err := deploy(sim, schooner.ManagerConfig{Journal: journal}, "ws", churnMachines, tr, npssproc.DuctProgram())
	if err != nil {
		journal.Close()
		os.RemoveAll(walDir)
		return nil, err
	}
	c := &churn{net: net, dep: dep, walDir: walDir, want: want}
	for i := 0; i < callers; i++ {
		client, ctx := newClient(sim, "ws", tr)
		c.callers = append(c.callers, &churnCaller{client: client, ctx: ctx, rng: rand.New(rand.NewSource(seed*int64(callers) + int64(i)))})
	}
	for i := 0; i < residentLines; i++ {
		k := c.callers[i%callers]
		ln, err := c.start(k, fmt.Sprintf("resident-%d", i), churnMachines[(i/callers)%2])
		if err != nil {
			c.close()
			return nil, err
		}
		dep.lines = append(dep.lines, ln)
		if k.mover == nil {
			k.mover, k.moverAt = ln, (i/callers)%2
		} else {
			k.readers = append(k.readers, ln)
		}
		if ok, err := c.call(k, ln); err != nil || !ok {
			c.close()
			return nil, fmt.Errorf("warm-up call on line %d: ok=%v err=%v", i, ok, err)
		}
	}
	return c, nil
}

// start registers a line and starts the duct program for it.
func (c *churn) start(k *churnCaller, module, host string) (*schooner.Line, error) {
	ln, err := k.client.ContactSchx(module)
	if err != nil {
		return nil, err
	}
	if err := ln.StartRemote(npssproc.DuctPath, host); err != nil {
		ln.IQuit()
		return nil, err
	}
	if err := npssproc.RegisterImports(ln); err != nil {
		ln.IQuit()
		return nil, err
	}
	return ln, nil
}

func (c *churn) call(k *churnCaller, ln *schooner.Line) (bool, error) {
	var out []uts.Value
	err := traced(k.ctx, func() (err error) {
		out, err = ln.Call("setduct", setductArgs...)
		return err
	})
	return err == nil && len(out) == 1 && out[0].F == c.want, err
}

// nextOp deals the caller's operations: each block of 100 is a fresh
// seeded shuffle of the fixed mix.
func (k *churnCaller) nextOp() byte {
	if k.next == len(k.block) {
		k.block = append(k.block[:0], churnMix...)
		k.rng.Shuffle(len(k.block), func(i, j int) { k.block[i], k.block[j] = k.block[j], k.block[i] })
		k.next = 0
	}
	op := k.block[k.next]
	k.next++
	return op
}

func (c *churn) measure(d time.Duration) (*measurement, error) {
	moves := make([][]float64, callers)
	cycles := make([][]float64, callers)
	before, seq0 := readClientCounters(), c.dep.mgr.JournalSeq()
	m, err := closedLoop(d, callers, func(i int, m *measurement) error {
		k := c.callers[i]
		if k.ctx != nil {
			defer k.ctx.unit()()
		}
		t0 := time.Now()
		switch k.nextOp() {
		case 'L':
			ln := k.readers[k.rng.Intn(len(k.readers))]
			ln.FlushCache()
			ok, err := c.call(k, ln)
			if err != nil {
				return fmt.Errorf("lookup: %w", err)
			}
			m.record(time.Since(t0), 1, ok)
		case 'C':
			ln, err := c.start(k, "churn", churnMachines[k.rng.Intn(2)])
			if err != nil {
				return fmt.Errorf("cycle start: %w", err)
			}
			ok, err := c.call(k, ln)
			if qerr := ln.IQuit(); err == nil {
				err = qerr
			}
			if err != nil {
				return fmt.Errorf("cycle: %w", err)
			}
			cycles[i] = append(cycles[i], time.Since(t0).Seconds()*1e3)
			m.count(1, ok)
		case 'M':
			k.moverAt = 1 - k.moverAt
			target := churnMachines[k.moverAt]
			if err := k.mover.Move("setduct", target, false); err != nil {
				return fmt.Errorf("move: %w", err)
			}
			// The blackout ends with the first good call on the new
			// machine: the stale cached binding fails, the client
			// re-asks the Manager, and the retry lands.
			ok, err := c.call(k, k.mover)
			if err != nil {
				return fmt.Errorf("call after move: %w", err)
			}
			moves[i] = append(moves[i], time.Since(t0).Seconds()*1e3)
			seen := c.dep.mgr.NameBindings(k.mover.ID())["setduct"]
			m.count(1, ok && seen == target)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	faultCounters(m, before, readClientCounters())
	m.Layer["schooner.move_blackout_ms"] = median(flatten(moves))
	m.Layer["schooner.cycle_ms"] = median(flatten(cycles))
	m.Layer["schooner.journal_records_per_op"] = float64(c.dep.mgr.JournalSeq()-seq0) / float64(m.Ops)
	return m, nil
}

func flatten(per [][]float64) []float64 {
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// close checks the churn left nothing behind — exactly the resident
// lines at the Manager, no connection open after tear-down — and
// removes the journal.
func (c *churn) close() error {
	lines := c.dep.mgr.LineCount()
	err := c.dep.stop()
	for _, k := range c.callers {
		k.client.Close()
	}
	os.RemoveAll(c.walDir)
	if err != nil {
		return err
	}
	if lines != residentLines {
		return fmt.Errorf("manager holds %d lines after the churn, want %d", lines, residentLines)
	}
	// Serving goroutines close their ends as they notice the peer is
	// gone, so the count settles a moment after the last Stop returns.
	open := c.net.OpenConns()
	for deadline := time.Now().Add(time.Second); open != 0 && time.Now().Before(deadline); open = c.net.OpenConns() {
		time.Sleep(2 * time.Millisecond)
	}
	if open != 0 {
		return fmt.Errorf("%d simulated connections still open after tear-down", open)
	}
	return nil
}

// model: the unit of work is a cache-miss lookup with 128 lines at the
// Manager, which is a rung of its own. No codec rung prices it.
func (c *churn) model(rung map[string]float64, _ *measurement) (waitUS, codecUS float64, extra map[string]float64, err error) {
	return rung["schooner.lookup_us.lines128"], 0, nil, nil
}
