// Package npss reproduces the system of Homer & Schlichting,
// "Supporting Heterogeneity and Distribution in the Numerical
// Propulsion System Simulation Project" (HPDC 1993): the Schooner
// heterogeneous remote procedure call facility, the UTS universal type
// system and its Go stub compiler, an AVS-style dataflow simulation
// executive, and TESS, a complete one-dimensional transient turbofan
// engine simulation — plus the simulated heterogeneous machines and
// networks the original testbed provided in hardware.
//
// The public surface lives in the commands and examples; the library
// packages are under internal/ (see README.md for the map) because the
// paper's system is an application, not a general-purpose RPC stack.
// cmd/npss-exp regenerates the paper's evaluation artifacts and bench/
// is the benchmark; see EXPERIMENTS.md for the paper-vs-measured
// record.
package npss

// Version identifies the reproduction, not the original software.
const Version = "npss-repro 1.0"
