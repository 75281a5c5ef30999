//go:build race

package schooner

// Under the race detector sync.Pool drops a random quarter of the
// frames put back, so a call allocates two or three more objects on
// average than it does in a plain build.
func init() { objectSlack = 5.5 }
