package schooner

import (
	"errors"
	"slices"

	"npss/internal/machine"
	"npss/internal/uts"
)

// marshalNative is the outbound half of the data conversion, shared by
// a caller's arguments and a procedure's results: each value passes
// through arch's native representation straight into the interchange
// buffer. No converted copy is built and vals, which belong to the
// caller or the procedure, are not modified. keep, when not nil, is
// parallel to params and false for a value that is converted for its
// range errors but not sent: a result a subset import leaves out. size
// is the marshaled size of the values sent, when it is fixed.
//
// A value the machine cannot hold comes back as (nil, i, err), i its
// index and err the machine's error; any other failure as (nil, -1, err).
func marshalNative(arch *machine.Arch, params []uts.Param, vals []uts.Value, keep []bool, size int) (data []byte, bad int, err error) {
	data = slices.Grow(data, size)
	for i, p := range params {
		if keep != nil && !keep[i] {
			if _, err := arch.NativeRoundTrip(vals[i]); err != nil {
				return nil, i, err
			}
			continue
		}
		if data, err = uts.EncodeParam(data, p, vals[i], arch); err == nil {
			continue
		}
		var ne *uts.NativeError
		if errors.As(err, &ne) {
			return nil, i, ne.Err
		}
		// vals[i] does not match its declared type. Conversion used to
		// run over every value before the first was encoded, so a value
		// further on that the machine cannot hold is still the error to
		// report.
		for j := i; j < len(vals); j++ {
			if _, cerr := arch.NativeRoundTrip(vals[j]); cerr != nil {
				return nil, j, cerr
			}
		}
		return nil, -1, err
	}
	return data, -1, nil
}
