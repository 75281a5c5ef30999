package main

import (
	"testing"
	"time"

	"npss/internal/schooner"
)

// The end-to-end metrics are measured with the benchmark's decorators
// absent: an untraced set-up and run constructs none of them, and the
// client dials through the program's own transport.
func TestUntracedRunBuildsNoDecorators(t *testing.T) {
	before := decoratorsBuilt.Load()
	inst, err := setupTCP(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*tcp)
	if w.ctx != nil {
		t.Error("untraced workload carries a tracing context")
	}
	m, err := inst.measure(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	if m.Failed != 0 || m.Ops == 0 {
		t.Fatalf("ops=%d failed=%d", m.Ops, m.Failed)
	}
	if got := decoratorsBuilt.Load() - before; got != 0 {
		t.Fatalf("untraced run constructed %d decorators", got)
	}
	client, ctx := newClient(schooner.NewTCPTransport(nil), "ws", nil)
	if _, plain := client.Transport.(*schooner.TCPTransport); !plain || ctx != nil {
		t.Fatalf("untraced client dials through %T", client.Transport)
	}
}

// The traced repeat of the same workload records the whole span tree,
// with every request's wait attributed to the call that issued it.
func TestTracedRunRecordsSpanTree(t *testing.T) {
	before := decoratorsBuilt.Load()
	tr := newTracer()
	inst, err := setupTCP(1, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.reset()
	m, err := inst.measure(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	if decoratorsBuilt.Load() == before {
		t.Fatal("traced run constructed no decorators")
	}
	spans := tr.all()
	sum := tr.summarize(spans)
	for _, name := range []string{"schooner.call", "conn.send", "conn.recv_wait", "proc.fn"} {
		l := sum.Layers[name]
		if l == nil || l.Count < m.Ops {
			t.Fatalf("layer %s: %+v, want at least %d spans", name, l, m.Ops)
		}
		if l.SelfNS < 0 || l.SelfNS > l.DurNS {
			t.Errorf("layer %s: self %d outside [0, %d]", name, l.SelfNS, l.DurNS)
		}
	}
	calls := make(map[int64]bool)
	for _, s := range spans {
		if s.Name == schoonerCall {
			calls[s.ID] = true
		}
	}
	waits := make(map[int64]bool)
	for _, s := range spans {
		if s.Name == connRecvWait {
			waits[s.ID] = true
			if !calls[s.Parent] {
				t.Fatalf("conn.recv_wait span %d has parent %d, which is no schooner.call", s.ID, s.Parent)
			}
		}
	}
	for _, s := range spans {
		if s.Name == procFn && !waits[s.Parent] {
			t.Fatalf("proc.fn span %d has parent %d, which is no conn.recv_wait", s.ID, s.Parent)
		}
	}
}
