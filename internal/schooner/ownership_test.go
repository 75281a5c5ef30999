package schooner

import (
	"fmt"
	"sync"
	"testing"

	"npss/internal/uts"
)

// ownershipSpec is the echo the ownership tests call: big enough that
// its argument is worth keeping between calls.
const ownershipSpec = `prog("x" val array[4096] of double, "y" res array[4096] of double)`

// filled returns an array[n] of double whose elements are base+i.
func filled(n int, base float64) uts.Value {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + float64(i)
	}
	return uts.DoubleArray(xs...)
}

// TestSharedEchoKeepsCallersApart: two lines call one shared procedure
// process at once, each on its own connection, so their arguments are
// decoded and their replies encoded side by side. Each call decodes
// into an argument set no other call holds, and each caller gets back
// exactly the values it sent. Run it under -race.
func TestSharedEchoKeepsCallersApart(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(&Program{
		Path: "/test/echo", Language: LangC,
		Build: func() (*Instance, error) {
			return NewInstance(&BoundProc{
				Spec: uts.MustParseProc("export echo " + ownershipSpec),
				Fn:   func(in []uts.Value) ([]uts.Value, error) { return in, nil },
			})
		},
	})
	owner, err := d.client("avs-sparc").ContactSchx("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer owner.IQuit()
	if err := owner.StartShared("/test/echo", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	other, err := d.client("rs6000").ContactSchx("other")
	if err != nil {
		t.Fatal(err)
	}
	defer other.IQuit()

	const calls = 1000
	var wg sync.WaitGroup
	for n, ln := range []*Line{owner, other} {
		ln.Import(uts.MustParseProc("import echo " + ownershipSpec))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				base := float64(n*calls+c) * 1e4
				out, err := ln.Call("echo", filled(4096, base))
				if err != nil {
					t.Errorf("line %d call %d: %v", n, c, err)
					return
				}
				for i, e := range out[0].Elems {
					if e.F != base+float64(i) {
						t.Errorf("line %d call %d: element %d is %g, sent %g", n, c, i, e.F, base+float64(i))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestArgumentsAreTheProcedures pins Handler's ownership rule both
// ways: a procedure that keeps its argument past its return sees the
// next call's arguments decoded over it, and one that keeps a Clone
// keeps its values.
func TestArgumentsAreTheProcedures(t *testing.T) {
	for _, clone := range []bool{false, true} {
		t.Run(fmt.Sprintf("clone=%v", clone), func(t *testing.T) {
			var kept uts.Value
			d := newDeployment(t, "avs-sparc", ieeeHosts())
			d.reg.MustRegister(&Program{
				Path: "/test/stash", Language: LangC,
				Build: func() (*Instance, error) {
					return NewInstance(&BoundProc{
						Spec: uts.MustParseProc("export echo " + ownershipSpec),
						Fn: func(in []uts.Value) ([]uts.Value, error) {
							if kept.Type == nil {
								kept = in[0]
								if clone {
									kept = in[0].Clone()
								}
							}
							return in, nil
						},
					})
				},
			})
			ln, err := d.client("avs-sparc").ContactSchx("m")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.IQuit()
			if err := ln.StartRemote("/test/stash", "sgi-lerc"); err != nil {
				t.Fatal(err)
			}
			ln.Import(uts.MustParseProc("import echo " + ownershipSpec))
			first, second := filled(4096, 1), filled(4096, 1e6)
			for _, arg := range []uts.Value{first, second} {
				if _, err := ln.Call("echo", arg); err != nil {
					t.Fatal(err)
				}
			}
			want := second
			if clone {
				want = first
			}
			if !kept.EqualValue(want) {
				t.Errorf("the kept argument reads %g…, want %g…", kept.Elems[0].F, want.Elems[0].F)
			}
		})
	}
}
