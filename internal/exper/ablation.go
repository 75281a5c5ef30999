package exper

import (
	"fmt"
	"strings"
	"time"

	"npss/internal/msgpass"
	"npss/internal/schooner"
	"npss/internal/uts"
)

// AblationResult reports one design-choice comparison.
type AblationResult struct {
	Name    string
	Variant string
	// PerOp is wall clock per operation: for the printed table, too
	// noisy on a shared machine to assert on.
	PerOp  time.Duration
	Detail string
	// msgs is the network messages the variant's loop sent, for the
	// variants whose design choice is a message count.
	msgs int64
}

// FormatAblations renders ablation results.
func FormatAblations(results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-28s %12s  %s\n", "Ablation", "Variant", "per-op", "Notes")
	for _, r := range results {
		fmt.Fprintf(&b, "%-22s %-28s %12s  %s\n", r.Name, r.Variant, r.PerOp, r.Detail)
	}
	return b.String()
}

// shaftArgs builds the argument list of the paper's shaft call.
func shaftArgs() []uts.Value {
	return []uts.Value{
		uts.DoubleArray(1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleArray(1.1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleVal(1), uts.DoubleVal(1000), uts.DoubleVal(9),
	}
}

var shaftImport = uts.MustParseProc(`import shaft prog(
    "ecom" val array[4] of double, "incom" val integer,
    "etur" val array[4] of double, "intur" val integer,
    "ecorr" val double, "xspool" val double, "xmyi" val double,
    "dxspl" res double)`)

// RPCvsMsgPass compares the Schooner RPC path against the PVM-style
// message-passing baseline for the same shaft computation on the same
// pair of machines: the design choice of section 3.1 ("RPC is ...
// simpler to implement" and sufficient for coarse-grain connection).
func RPCvsMsgPass(calls int) ([]AblationResult, error) {
	tb, err := NewTestbed(SparcLerc)
	if err != nil {
		return nil, err
	}
	defer tb.Stop()

	// --- Schooner RPC side. ---
	client := &schooner.Client{Transport: tb.Tr, Host: SparcLerc, ManagerHost: SparcLerc}
	ln, err := client.ContactSchx("ablation-rpc")
	if err != nil {
		return nil, err
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/npss-shaft", SGI480Lerc); err != nil {
		return nil, err
	}
	if err := ln.Import(shaftImport); err != nil {
		return nil, err
	}
	args := shaftArgs()
	if _, err := ln.Call("shaft", args...); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := ln.Call("shaft", args...); err != nil {
			return nil, err
		}
	}
	rpcPer := time.Since(start) / time.Duration(calls)

	// --- Message-passing side: same computation, hand-rolled
	// pack/send/recv/unpack on both ends. ---
	worker, err := msgpass.Spawn(tb.Tr, SGI480Lerc, "shaft-worker")
	if err != nil {
		return nil, err
	}
	defer worker.Close()
	go func() {
		for {
			_, buf, err := worker.Recv(1)
			if err != nil {
				return
			}
			ecom, _ := buf.UnpackFloats()
			etur, _ := buf.UnpackFloats()
			ecorr, _ := buf.UnpackFloat64()
			xspool, _ := buf.UnpackFloat64()
			xmyi, _ := buf.UnpackFloat64()
			var pc, pt float64
			for _, v := range ecom {
				pc += v
			}
			for _, v := range etur {
				pt += v
			}
			reply := msgpass.NewBuffer().PackFloat64(ecorr * (pt - pc) / (xmyi * xspool))
			worker.Send(SparcLerc, "shaft-master", 2, reply)
		}
	}()
	master, err := msgpass.Spawn(tb.Tr, SparcLerc, "shaft-master")
	if err != nil {
		return nil, err
	}
	defer master.Close()
	call := func() error {
		buf := msgpass.NewBuffer().
			PackFloats([]float64{1e6, 0, 0, 0}).
			PackFloats([]float64{1.1e6, 0, 0, 0}).
			PackFloat64(1).PackFloat64(1000).PackFloat64(9)
		if err := master.Send(SGI480Lerc, "shaft-worker", 1, buf); err != nil {
			return err
		}
		_, _, err := master.Recv(2)
		return err
	}
	if err := call(); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < calls; i++ {
		if err := call(); err != nil {
			return nil, err
		}
	}
	msgPer := time.Since(start) / time.Duration(calls)

	return []AblationResult{
		{Name: "rpc-vs-msgpass", Variant: "Schooner RPC", PerOp: rpcPer, Detail: "typed stubs, Manager binding, runtime type check"},
		{Name: "rpc-vs-msgpass", Variant: "PVM-style message passing", PerOp: msgPer, Detail: "hand-written pack/unpack on both ends"},
	}, nil
}

// NameCache compares the client-side procedure name cache against
// asking the Manager on every call: the section 4.2 design choice of
// lazy cache invalidation over Manager round-trips.
func NameCache(calls int) ([]AblationResult, error) {
	tb, err := NewTestbed(SparcLerc)
	if err != nil {
		return nil, err
	}
	defer tb.Stop()
	client := &schooner.Client{Transport: tb.Tr, Host: SparcLerc, ManagerHost: SparcLerc}
	ln, err := client.ContactSchx("ablation-cache")
	if err != nil {
		return nil, err
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/npss-shaft", SGI480Lerc); err != nil {
		return nil, err
	}
	if err := ln.Import(shaftImport); err != nil {
		return nil, err
	}
	args := shaftArgs()
	if _, err := ln.Call("shaft", args...); err != nil {
		return nil, err
	}

	// What the cache changes is traffic, so each variant is counted in
	// messages on the simulated network as well as timed.
	loop := func(flush bool) (time.Duration, int64, error) {
		tb.Net.ResetStats()
		start := time.Now()
		for i := 0; i < calls; i++ {
			if flush {
				ln.FlushCache()
			}
			if _, err := ln.Call("shaft", args...); err != nil {
				return 0, 0, err
			}
		}
		per := time.Since(start) / time.Duration(calls)
		var msgs int64
		for _, st := range tb.Net.Stats() {
			msgs += st.Messages
		}
		return per, msgs, nil
	}
	cached, cachedMsgs, err := loop(false)
	if err != nil {
		return nil, err
	}
	uncached, uncachedMsgs, err := loop(true)
	if err != nil {
		return nil, err
	}
	perCall := func(msgs int64) string {
		return fmt.Sprintf("%.3g messages per call", float64(msgs)/float64(calls))
	}
	return []AblationResult{
		{Name: "name-cache", Variant: "cached binding", PerOp: cached, msgs: cachedMsgs,
			Detail: perCall(cachedMsgs) + ": the call and its reply"},
		{Name: "name-cache", Variant: "ask Manager every call", PerOp: uncached, msgs: uncachedMsgs,
			Detail: perCall(uncachedMsgs) + ": adds a Manager lookup and a fresh connection"},
	}, nil
}

// UTSvsNative compares marshaling through the UTS intermediate
// representation against a raw native-format copy for the shaft
// argument list: the cost of the N-to-1-to-N conversion architecture
// on a homogeneous machine pair, where direct copying would have
// sufficed.
func UTSvsNative(ops int) ([]AblationResult, error) {
	spec := shaftImport
	args := shaftArgs()
	ins := spec.InParams()

	start := time.Now()
	var encoded []byte
	for i := 0; i < ops; i++ {
		var err error
		encoded, err = uts.EncodeParams(encoded[:0], ins, args)
		if err != nil {
			return nil, err
		}
		if _, err := uts.DecodeParams(encoded, ins); err != nil {
			return nil, err
		}
	}
	utsPer := time.Since(start) / time.Duration(ops)

	// The native-format baseline: the same 76 payload bytes copied
	// twice (out and in) with no interpretation.
	raw := make([]byte, len(encoded))
	dst := make([]byte, len(encoded))
	start = time.Now()
	for i := 0; i < ops; i++ {
		copy(raw, encoded)
		copy(dst, raw)
	}
	nativePer := time.Since(start) / time.Duration(ops)

	return []AblationResult{
		{Name: "uts-vs-native", Variant: "UTS intermediate form", PerOp: utsPer, Detail: fmt.Sprintf("%d payload bytes, full type interpretation", len(encoded))},
		{Name: "uts-vs-native", Variant: "native pass-through", PerOp: nativePer, Detail: "homogeneous-pair best case (memcpy)"},
	}, nil
}
