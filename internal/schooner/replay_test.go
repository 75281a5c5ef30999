package schooner

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/uts"
	"npss/internal/wal"
)

// dumpTables renders every table a journal record writes: the next
// line id; per database, each lookup name with the export name, host
// and address it resolves to, and each process; and every checkpoint.
func dumpTables(m *Manager) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "next line %d\n", m.nextLine)
	lines := []*line{m.shared}
	for _, ln := range m.lines {
		lines = append(lines, ln)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].id < lines[j].id })
	for _, ln := range lines {
		fmt.Fprintf(&b, "line %d %q\n", ln.id, ln.module)
		for _, n := range sortedKeys(ln.names) {
			r := ln.names[n]
			fmt.Fprintf(&b, "  name %s -> %s on %s at %s\n", n, r.spec.Name, r.proc.host, r.proc.addr)
		}
		for _, addr := range sortedKeys(ln.processes) {
			p := ln.processes[addr]
			fmt.Fprintf(&b, "  proc %s %s on %s lang %v\n", addr, p.path, p.host, p.language)
		}
	}
	for _, addr := range sortedKeys(m.checkpoints) {
		ck := m.checkpoints[addr]
		for _, proc := range sortedKeys(ck) {
			fmt.Fprintf(&b, "checkpoint %s %s %x\n", addr, proc, ck[proc])
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// replayed rebuilds a Manager's tables from a copy of a journal
// backend, exactly as a recovering Manager does, without serving or
// re-adopting anything.
func replayed(t *testing.T, b wal.Backend) *Manager {
	t.Helper()
	cp := wal.NewMemBackend()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := b.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		cp.SetSegment(name, data)
	}
	log, err := wal.Open(cp, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	m := &Manager{
		lines:       make(map[uint32]*line),
		shared:      newLine(0, "<shared>"),
		journal:     log,
		checkpoints: make(map[string]map[string][]byte),
	}
	if err := m.recoverFromJournal(); err != nil {
		t.Fatal(err)
	}
	return m
}

// requireReplayEqual fails the test when the live Manager's tables
// differ from the ones its journal rebuilds.
func requireReplayEqual(t *testing.T, dd *durableDeployment, step string) {
	t.Helper()
	live, rebuilt := dumpTables(dd.mgr), dumpTables(replayed(t, dd.backend))
	if live != rebuilt {
		t.Fatalf("after %s the live tables differ from their replay\nlive:\n%s\nreplayed:\n%s", step, live, rebuilt)
	}
}

// TestLiveTablesAreTheirReplay: after every kind of Manager mutation —
// register, start, stateless move (of Cray-hosted Fortran, whose names
// change case with the machine), stateful move, failover restoring
// from a checkpoint, checkpoint sweep, quit — the live tables equal
// the ones a recovered Manager rebuilds from the same journal.
func TestLiveTablesAreTheirReplay(t *testing.T) {
	hosts := ieeeHosts()
	hosts["cray-lerc"] = machine.CrayYMP
	dd := newDurableDeployment(t, "avs-sparc", hosts)
	dd.reg.MustRegister(shaftProgram("/npss/npss-shaft"))
	dd.reg.MustRegister(counterProgram("/npss/counter"))

	ln, err := dd.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	requireReplayEqual(t, dd, "register")

	if err := ln.StartRemote("/npss/npss-shaft", "cray-lerc"); err != nil {
		t.Fatal(err)
	}
	requireReplayEqual(t, dd, "start on the Cray")

	if err := ln.Move("setshaft", "sgi-lerc", false); err != nil {
		t.Fatal(err)
	}
	requireReplayEqual(t, dd, "stateless move off the Cray")

	if err := ln.StartRemote("/npss/counter", "rs6000"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	for i := 0; i < 3; i++ {
		if _, err := ln.Call("next"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ln.Move("next", "sgi-lerc", true); err != nil {
		t.Fatal(err)
	}
	requireReplayEqual(t, dd, "stateful move")

	// Both processes now live on sgi-lerc; the counter's transferred
	// state is its acked checkpoint, so failover restores it.
	dd.mgr.StartHealth(HealthPolicy{Interval: 5 * time.Millisecond, Threshold: 2, PingTimeout: 50 * time.Millisecond})
	dd.net.SetHostDown("sgi-lerc", true)
	deadline := time.Now().Add(5 * time.Second)
	for onHost(dd.mgr.NameBindings(ln.ID()), "sgi-lerc") {
		if time.Now().After(deadline) {
			t.Fatal("failover never re-homed sgi-lerc's processes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dd.mgr.StopHealth()
	if len(dd.mgr.RestoreLedger()) != 1 {
		t.Fatalf("restore ledger = %v, want the counter restored once", dd.mgr.RestoreLedger())
	}
	requireReplayEqual(t, dd, "failover with checkpoint restore")

	if snaps, fails := dd.mgr.CheckpointNow(); snaps != 1 || fails != 0 {
		t.Fatalf("CheckpointNow = %d snapshots, %d failures", snaps, fails)
	}
	requireReplayEqual(t, dd, "checkpoint sweep")

	if err := ln.IQuit(); err != nil {
		t.Fatal(err)
	}
	requireReplayEqual(t, dd, "quit")
}

// onHost reports whether any binding resolves to host.
func onHost(bindings map[string]string, host string) bool {
	for _, h := range bindings {
		if h == host {
			return true
		}
	}
	return false
}

// TestVirtualMoveRacingFailover: a Move to a slow machine is still
// spawning its copy when failover re-homes the same process. The
// failover wins, so the Move fails, shuts its copy down, and the line
// keeps exactly one process.
func TestVirtualMoveRacingFailover(t *testing.T) {
	t.Parallel()
	d, _ := newVirtualDeployment(t, "avs-sparc", map[string]*machine.Arch{
		"avs-sparc": machine.SPARC,
		"sgi-lerc":  machine.SGI,
		"zz-slow":   machine.SGI,
	})
	d.net.SetLink("avs-sparc", "zz-slow", netsim.LinkSpec{Name: "slow", Latency: 200 * time.Millisecond, Bandwidth: 1e6})
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	d.mgr.StartHealth(HealthPolicy{Interval: 10 * time.Millisecond, Threshold: 1})
	d.net.SetHostDown("sgi-lerc", true)

	if err := ln.Move("add", "zz-slow", false); err == nil {
		t.Error("Move returned nil after failover had already re-homed the process")
	}
	d.mgr.StopHealth()
	d.mgr.mu.Lock()
	procs := len(d.mgr.lines[ln.ID()].processes)
	d.mgr.mu.Unlock()
	if procs != 1 {
		t.Errorf("line holds %d processes, want 1", procs)
	}
	if n := d.servers["zz-slow"].ProcessCount(); n != 0 {
		t.Errorf("zz-slow runs %d live processes, want the Move's copy shut down", n)
	}
}

// breakableBackend is an in-memory WAL backend whose segment writes
// fail while broken is set, as on a full or failed disk.
type breakableBackend struct {
	*wal.MemBackend
	broken atomic.Bool
}

func (b *breakableBackend) Create(name string) (wal.SegmentWriter, error) {
	w, err := b.MemBackend.Create(name)
	if err != nil {
		return nil, err
	}
	return breakableWriter{w, b}, nil
}

type breakableWriter struct {
	wal.SegmentWriter
	b *breakableBackend
}

func (w breakableWriter) Write(p []byte) (int, error) {
	if w.b.broken.Load() {
		return 0, errors.New("disk failed")
	}
	return w.SegmentWriter.Write(p)
}

// TestRefusedRecordChangesNothing: while the journal refuses writes, a
// start fails and its process is shut down, a checkpoint sweep counts
// a failure, and the live tables still equal their replay.
func TestRefusedRecordChangesNothing(t *testing.T) {
	backend := &breakableBackend{MemBackend: wal.NewMemBackend()}
	dd := newDurableDeploymentOn(t, backend, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(adderProgram("/npss/adder"))
	dd.reg.MustRegister(counterProgram("/npss/counter"))
	ln, err := dd.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}

	backend.broken.Store(true)
	if err := ln.StartRemote("/npss/adder", "rs6000"); err == nil {
		t.Error("StartRemote succeeded while the journal refused its record")
	}
	if n := dd.servers["rs6000"].ProcessCount(); n != 0 {
		t.Errorf("rs6000 runs %d live processes after the refused start, want 0", n)
	}
	if _, fails := dd.mgr.CheckpointNow(); fails == 0 {
		t.Error("CheckpointNow counted no failure while the journal refused its records")
	}
	requireReplayEqual(t, dd, "refused records")
	backend.broken.Store(false)
}
