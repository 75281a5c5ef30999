package main

import (
	"fmt"
	"os"
	"time"

	"npss/internal/dst"
)

// sweepOps is the schedule length of each seed. The repository's own
// sweep uses 200; 50 keeps one seed near two seconds, so a window holds
// several seeds and overruns by at most one.
const sweepOps = 50

// sweep holds the next seed to run; successive windows carry on from it.
type sweep struct{ next int64 }

// standUpAttempts bounds the retries of a cluster that failed to stand
// up. On a multi-core machine the virtual clock can misjudge quiescence
// while the cluster starts and fire a Manager deadline early (ROADMAP
// item 1); the schedule never began, so the seed is simply tried again
// and the error counted in dst.harness_errors.
const standUpAttempts = 3

func standUp(seed int64) (c *dst.Cluster, harnessErrors int, err error) {
	for harnessErrors < standUpAttempts {
		if c, err = dst.NewCluster(dst.Config{Seed: seed, Ops: sweepOps}); err == nil {
			return c, harnessErrors, nil
		}
		fmt.Fprintln(os.Stderr, "bench: dst harness error, retrying:", err)
		harnessErrors++
	}
	return nil, harnessErrors, err
}

// setupSweep times what a DST run pays before its first op: standing
// the virtual-time cluster up (and, to leave nothing behind, down).
func setupSweep(seed int64, _ *tracer) (instance, error) {
	c, _, err := standUp(seed)
	if err != nil {
		return nil, err
	}
	if res := c.Finish(); res.Violation != nil {
		return nil, fmt.Errorf("idle cluster: %v", res.Violation)
	}
	return &sweep{next: seed}, nil
}

// runSeed is dst.Run spelled out on the exported Cluster API, so that
// the schedule can be timed apart from standing the cluster up and
// tearing it down: generate the seed's schedule, apply it until a
// violation, converge, finish. The wait it records is the wall time one
// simulated second of the schedule took.
func runSeed(seed int64, m *measurement) (*dst.Result, error) {
	c, harnessErrors, err := standUp(seed)
	m.Layer["dst.harness_errors"] += float64(harnessErrors)
	if err != nil {
		return nil, err
	}
	t0, v0 := time.Now(), c.Elapsed()
	for _, op := range dst.Generate(seed, sweepOps, c.Hosts()) {
		c.Apply(op)
		if c.Violation() != nil {
			break
		}
	}
	c.Converge()
	wall, virt := time.Since(t0), c.Elapsed()-v0
	res := c.Finish()
	if res.Violation != nil {
		fmt.Fprintf(os.Stderr, "bench: dst seed %d: %v\n", seed, res.Violation)
		m.Layer["dst.violations"]++
	}
	m.record(time.Duration(float64(wall)/virt.Seconds()), virt.Milliseconds(), res.Violation == nil)
	return res, nil
}

// measure runs the next seeds, one after another, for the window. dst builds its
// cluster itself, so no decorator can be hung on it: the traced pass of
// this workload repeats the untraced one.
//
// The operation counted is one simulated millisecond and the wait is
// the wall time one simulated second takes. DST ops per wall second
// varies by half from seed to seed, because schedules differ in how much
// simulated time their ops cover (a partition waits out timeouts, a call
// does not), while wall time per simulated second is a property of the
// simulator and repeats within a few percent. DST ops per second, which the sweep's user also
// sees, is reported as the per-layer dst.ops_per_s.
func (s *sweep) measure(d time.Duration) (*measurement, error) {
	var virt, wall time.Duration
	var dstOps int
	var walls []float64
	m, err := closedLoop(d, 1, func(_ int, m *measurement) error {
		res, err := runSeed(s.next, m)
		s.next++
		if err != nil {
			return err
		}
		virt += res.VirtualElapsed
		wall += res.RealElapsed
		walls = append(walls, res.RealElapsed.Seconds())
		dstOps += len(res.Outcomes) + 1 // the convergence check is one more op
		m.Layer["dst.signature_retries"] += float64(res.Signature["schooner.client.retries"])
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.Layer["dst.virt_s_per_wall_s"] = virt.Seconds() / wall.Seconds()
	m.Layer["dst.wall_s_per_seed"] = median(walls)
	m.Layer["dst.ops_per_s"] = float64(dstOps) / m.Elapsed.Seconds()
	return m, nil
}

func (s *sweep) close() error { return nil }

// model: no rung prices a DST seed; the one rung that only matters
// here is the virtual clock's timer fire.
func (s *sweep) model(map[string]float64, *measurement) (waitUS, codecUS float64, extra map[string]float64, err error) {
	return 0, 0, map[string]float64{"vclock.timer_fire_us": vclockRung()}, nil
}
