package machine

import (
	"fmt"
	"math"
	"sort"

	"npss/internal/uts"
)

// Arch describes one simulated machine architecture: the native data
// formats a procedure executing "on" that machine stores its values
// in, plus compiler quirks relevant to Schooner.
type Arch struct {
	// Name is the registry key, e.g. "cray-ymp".
	Name string
	// Description is the hardware the architecture models.
	Description string
	// WordBytes is the width of the native Fortran INTEGER: 4 on the
	// workstations, 8 on the Cray.
	WordBytes int
	// Single and Double are the native floating point codecs. On a
	// Cray both are the 64-bit Cray word.
	Single FloatCodec
	Double FloatCodec
	// FortranUpperCase records whether the machine's Fortran compiler
	// converts procedure names to upper case (the Cray did; everyone
	// else lower-cased). This inconsistency caused "a surprising
	// number of naming problems" per the paper; the Manager resolves
	// it by treating the two cases as synonyms.
	FortranUpperCase bool
}

// String returns the architecture name.
func (a *Arch) String() string { return a.Name }

// CheckInteger verifies that a native integer of this architecture's
// word size fits the 32-bit UTS integer. On 8-byte-word machines a
// value outside int32 range is a conversion error, per the paper's
// chosen policy.
func (a *Arch) CheckInteger(v int64) error {
	if v >= math.MinInt32 && v <= math.MaxInt32 {
		return nil
	}
	if a.WordBytes <= 4 {
		// A 4-byte machine cannot even hold such a value natively.
		return fmt.Errorf("machine: integer %d impossible on %d-byte-word architecture %s", v, a.WordBytes, a.Name)
	}
	return &RangeError{Value: float64(v), Format: a.Name + " integer->uts integer"}
}

// NativeFloat pushes a float64 through the architecture's native
// single-precision representation, returning the value as the
// architecture would actually hold it; NativeDoubles does the same to a
// run of doubles through the double-precision representation, and
// NativeDoubleBytes to a run of them in interchange form, in place. This
// is how heterogeneity enters the simulation: a procedure hosted on a
// Cray computes IEEE doubles (it is Go underneath) but its parameters
// and results pass through the Cray word, acquiring that format's
// precision and range. With CheckInteger and CheckLong they make *Arch
// a uts.Native: one call per scalar, and one per array of doubles.
func (a *Arch) NativeFloat(f float64) (float64, error) { return a.Single.RoundTrip(f) }

func (a *Arch) NativeDoubles(vs []uts.Value) error { return a.Double.RoundTripValues(vs) }

func (a *Arch) NativeDoubleBytes(b []byte) error { return a.Double.RoundTripBytes(b) }

// CheckLong verifies that a UTS long fits this architecture's native
// word. A 4-byte-word machine truncates longs; that is an error rather
// than silent corruption.
func (a *Arch) CheckLong(v int64) error {
	if a.WordBytes < 8 && (v < math.MinInt32 || v > math.MaxInt32) {
		return &RangeError{Value: float64(v), Format: a.Name + " long"}
	}
	return nil
}

// NativeRoundTrip pushes a UTS value through the architecture's native
// representation: every float and double acquires the native format's
// precision and range, and integers are checked against the native
// word. Strings, bytes, and booleans are unaffected. The returned
// value shares no storage with the input. (A value fresh from the
// decoder is converted where it lies, by uts.DecodeParamsNative.)
func (a *Arch) NativeRoundTrip(v uts.Value) (uts.Value, error) {
	var out uts.Value
	if err := a.convert(&out, &v); err != nil {
		return uts.Value{}, err
	}
	return out, nil
}

// convert stores the native round trip of *src in *dst, a zero Value;
// every aggregate under *dst gets its own Elems, allocated once. It
// assigns the fields that change and no others: storing a whole Value,
// pointers and all, costs a write barrier per element while the
// collector runs.
func (a *Arch) convert(dst, src *uts.Value) error {
	dst.Type = src.Type
	switch src.Type.Kind() {
	case uts.Float:
		f, err := a.NativeFloat(src.F)
		if err != nil {
			return err
		}
		// Keep the UTS-side single-precision invariant.
		dst.F = uts.FloatVal(f).F
	case uts.Double:
		f, err := a.Double.RoundTrip(src.F)
		if err != nil {
			return err
		}
		dst.F = f
	case uts.Array, uts.Record:
		dst.Elems = make([]uts.Value, len(src.Elems))
		for i := range src.Elems {
			if err := a.convert(&dst.Elems[i], &src.Elems[i]); err != nil {
				return err
			}
		}
	case uts.Integer:
		if err := a.CheckInteger(src.I); err != nil {
			return err
		}
		dst.I = src.I
	case uts.Long:
		if err := a.CheckLong(src.I); err != nil {
			return err
		}
		dst.I = src.I
	default:
		dst.I, dst.S = src.I, src.S
	}
	return nil
}

// IsIEEE reports whether the architecture's native floating point is
// exactly IEEE 754 (so native round trips are lossless).
func (a *Arch) IsIEEE() bool {
	switch a.Double.Name() {
	case "ieee64be", "ieee64le":
	default:
		return false
	}
	switch a.Single.Name() {
	case "ieee32be", "ieee32le":
		return true
	}
	return false
}

// The simulated architecture registry. Machine *names* (sparc10-lerc
// etc.) belong to the network simulator; these are the architecture
// families the paper's machines belong to.
var registry = map[string]*Arch{}

func register(a *Arch) *Arch {
	if _, dup := registry[a.Name]; dup {
		panic("machine: duplicate architecture " + a.Name)
	}
	registry[a.Name] = a
	return a
}

// Architectures of the paper's testbed, plus a little-endian PC for
// byte-order coverage and an IBM hex-float mainframe for the
// opposite-direction range failure.
var (
	SPARC = register(&Arch{
		Name:        "sparc",
		Description: "Sun SPARCstation 10 (IEEE 754, big-endian)",
		WordBytes:   4,
		Single:      IEEE32BE,
		Double:      IEEE64BE,
	})
	SGI = register(&Arch{
		Name:        "sgi4d",
		Description: "SGI 4D series, MIPS (IEEE 754, big-endian)",
		WordBytes:   4,
		Single:      IEEE32BE,
		Double:      IEEE64BE,
	})
	RS6000 = register(&Arch{
		Name:        "rs6000",
		Description: "IBM RS/6000, POWER (IEEE 754, big-endian)",
		WordBytes:   4,
		Single:      IEEE32BE,
		Double:      IEEE64BE,
	})
	CrayYMP = register(&Arch{
		Name:             "cray-ymp",
		Description:      "Cray Y-MP (Cray-1 floating point, 64-bit words, upper-case Fortran)",
		WordBytes:        8,
		Single:           Cray64,
		Double:           Cray64,
		FortranUpperCase: true,
	})
	Convex = register(&Arch{
		Name:        "convex-c220",
		Description: "Convex C220 (VAX-heritage native floating point)",
		WordBytes:   4,
		Single:      IEEE32BE, // Convex native single approximated as IEEE single
		Double:      VAXD64,
	})
	PC = register(&Arch{
		Name:        "i386pc",
		Description: "i386 PC workstation (IEEE 754, little-endian)",
		WordBytes:   4,
		Single:      IEEE32LE,
		Double:      IEEE64LE,
	})
	IBM370 = register(&Arch{
		Name:        "ibm370",
		Description: "IBM System/370 mainframe (base-16 hexadecimal floating point)",
		WordBytes:   4,
		Single:      IBMHex64, // long form used for both precisions
		Double:      IBMHex64,
	})
)

// ByName returns the registered architecture, or an error naming the
// known architectures.
func ByName(name string) (*Arch, error) {
	if a, ok := registry[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("machine: unknown architecture %q (known: %v)", name, Names())
}

// Names lists the registered architecture names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
