// Package dst is a deterministic simulation harness for the Schooner
// runtime: it stands up a whole cluster — Manager, a Server per
// machine, procedure processes, several lines — inside one Go process
// on a virtual clock, drives it with a randomized but seed-determined
// schedule of operations (spawns, calls, migrations, crashes,
// partitions), and checks runtime invariants after every step. A
// violation reports the seed and a greedily minimized op trace that
// replays to the same failure.
//
// Determinism rests on three legs. First, no component sleeps on the
// wall clock: the virtual clock (package vclock) is installed into
// both the network simulator and the Schooner client, so backoffs,
// call deadlines, and health probes all advance in simulated time.
// Second, the schedule is a pure function of the seed: the generator
// draws every op, host choice, and call count from a single seeded
// PRNG, and the driver applies ops sequentially. Third, faults are
// deterministic toggles (host down, link down) rather than
// probabilistic drops, so a given schedule always produces the same
// message outcomes.
package dst

import "fmt"

// OpKind enumerates the operations a scenario can perform.
type OpKind int

const (
	// OpSpawnLine opens a new line (module) from a client on Host.
	OpSpawnLine OpKind = iota
	// OpQuitLine quits line Line (its private processes shut down;
	// shared processes survive).
	OpQuitLine
	// OpStartProc starts the counter program on Host for line Line.
	OpStartProc
	// OpCall performs N sequential bump calls on line Line, with
	// driver-level retries carrying an explicit attempt number.
	OpCall
	// OpSlow performs one nap call on line Line: the process commits,
	// then holds the reply past the call deadline, deterministically
	// exercising the client timeout path.
	OpSlow
	// OpBurst launches N concurrent work calls on the shared work line
	// and waits for all of them.
	OpBurst
	// OpWork performs one sequential work call on the shared work line.
	OpWork
	// OpMove migrates line Line's bump procedure to Host.
	OpMove
	// OpMoveShared migrates the shared work procedure to Host.
	OpMoveShared
	// OpCrash marks Host down (all its links go dark).
	OpCrash
	// OpRestore brings Host back up.
	OpRestore
	// OpPartition severs the Host-Host2 link.
	OpPartition
	// OpHeal restores the Host-Host2 link.
	OpHeal
	// OpSettle advances virtual time by N*10ms, letting health probes
	// and failovers run.
	OpSettle
	// OpAcc performs one call on the shared stateful accumulator, with
	// driver-level retries. Pure traffic: it grows the accumulator state
	// the checkpoint/restore invariants are checked against.
	OpAcc
	// OpCheckpointNow runs a synchronous checkpoint sweep on the
	// Manager. When every stateful procedure snapshots cleanly, the
	// driver raises its accumulator floor — the value any later
	// checkpoint restore must reach.
	OpCheckpointNow
	// OpManagerCrash kills the Manager process abruptly: its listener,
	// connections, and journal close, but procedure processes keep
	// running. The driver snapshots the name database first.
	OpManagerCrash
	// OpManagerRecover restarts the Manager from its journal and checks
	// the recovered name database matches the pre-crash snapshot.
	OpManagerRecover
	// OpBatch launches N work calls on the shared work line as one
	// batched dispatch (Client.CallBatch): calls binding to processes
	// on one machine ride a single wire envelope to its Server, and any
	// batch-level failure falls back to the per-call retry path. Stays
	// on the menu while the Manager is down — cached bindings keep
	// batches working.
	OpBatch
)

var opNames = map[OpKind]string{
	OpSpawnLine:      "spawn-line",
	OpQuitLine:       "quit-line",
	OpStartProc:      "start-proc",
	OpCall:           "call",
	OpSlow:           "slow-call",
	OpBurst:          "burst",
	OpWork:           "work",
	OpMove:           "move",
	OpMoveShared:     "move-shared",
	OpCrash:          "crash",
	OpRestore:        "restore",
	OpPartition:      "partition",
	OpHeal:           "heal",
	OpSettle:         "settle",
	OpAcc:            "acc",
	OpCheckpointNow:  "checkpoint-now",
	OpManagerCrash:   "manager-crash",
	OpManagerRecover: "manager-recover",
	OpBatch:          "batch",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one step of a scenario. The generator fills every field the
// kind needs — including the call-ID base — so an op replays
// identically no matter which other ops surround it; that is what
// makes trace shrinking sound.
type Op struct {
	Kind  OpKind
	Line  int    // scenario line slot (not the wire line ID)
	Host  string // primary host operand
	Host2 string // second host for partition/heal
	N     int    // call count (OpCall/OpBurst) or settle ticks (OpSettle)
	ID    int64  // first call ID used by this op (generator-allocated)
}

func (o Op) String() string {
	s := o.Kind.String()
	switch o.Kind {
	case OpSpawnLine, OpQuitLine:
		s += fmt.Sprintf(" line=%d", o.Line)
	case OpStartProc, OpMove:
		s += fmt.Sprintf(" line=%d host=%s", o.Line, o.Host)
	case OpCall:
		s += fmt.Sprintf(" line=%d n=%d id=%d", o.Line, o.N, o.ID)
	case OpSlow:
		s += fmt.Sprintf(" line=%d id=%d", o.Line, o.ID)
	case OpBurst, OpBatch:
		s += fmt.Sprintf(" n=%d id=%d", o.N, o.ID)
	case OpWork, OpAcc:
		s += fmt.Sprintf(" id=%d", o.ID)
	case OpMoveShared, OpCrash, OpRestore:
		s += " host=" + o.Host
	case OpPartition, OpHeal:
		s += fmt.Sprintf(" %s-%s", o.Host, o.Host2)
	case OpSettle:
		s += fmt.Sprintf(" n=%d", o.N)
	}
	return s
}

// FormatTrace renders a schedule for a failure report: one op per
// line, numbered, preceded by the seed that grew it.
func FormatTrace(seed int64, ops []Op) string {
	s := fmt.Sprintf("seed %d, %d ops:\n", seed, len(ops))
	for i, o := range ops {
		s += fmt.Sprintf("  %3d. %s\n", i, o)
	}
	return s
}
