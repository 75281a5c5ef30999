// Command profile-check gates the critical-path attribution profile:
// a committed PROFILE_<n>.json is the golden profile, and a freshly
// captured run must keep its critical-path length and every
// attribution bucket within the drift threshold.
//
//	npss-exp -exp table2 -batch -timescale 0.05 -profile profile.out.json
//	profile-check compare PROFILE_33.json profile.out.json   # exit 1 on >15% drift
//	profile-check compare -warn PROFILE_33.json profile.out.json
//	profile-check latest -exclude profile.out.json           # highest-numbered golden
//
// Bucket drift is judged against the baseline critical-path length
// (see critpath.Compare), so a 2× network-delay injection trips the
// gate while a tiny bucket's scheduler jitter does not.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"npss/internal/critpath"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "compare":
		fs := flag.NewFlagSet("compare", flag.ExitOnError)
		warn := fs.Bool("warn", false, "report drifts without failing")
		threshold := fs.Float64("threshold", critpath.DefaultThreshold, "allowed relative drift")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			usage()
		}
		drifted, err := compare(fs.Arg(0), fs.Arg(1), *threshold, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if drifted && !*warn {
			os.Exit(1)
		}
	case "latest":
		fs := flag.NewFlagSet("latest", flag.ExitOnError)
		dir := fs.String("dir", ".", "directory holding the PROFILE_<n>.json goldens")
		exclude := fs.String("exclude", "", "file name to skip")
		fs.Parse(os.Args[2:])
		name, err := latest(*dir, *exclude)
		if err != nil {
			fatal(err)
		}
		if name != "" {
			fmt.Println(name)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: profile-check compare [-warn] [-threshold 0.15] golden.json new.json")
	fmt.Fprintln(os.Stderr, "       profile-check latest [-dir .] [-exclude PROFILE_n.json]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile-check:", err)
	os.Exit(1)
}

// compare diffs the new profile against the golden one and reports
// every drift beyond the threshold. A missing golden file is not an
// error: the first profile has nothing to compare against.
func compare(goldenPath, newPath string, threshold float64, w io.Writer) (bool, error) {
	golden, err := load(goldenPath)
	if os.IsNotExist(err) {
		fmt.Fprintf(w, "no golden profile %s; skipping comparison\n", goldenPath)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	cur, err := load(newPath)
	if err != nil {
		return false, err
	}
	drifts := critpath.Compare(golden, cur, threshold)
	for _, d := range drifts {
		fmt.Fprintln(w, "DRIFT", d)
	}
	if len(drifts) == 0 {
		fmt.Fprintf(w, "no drift beyond %.0f%%: critical path %s (golden %s)\n",
			threshold*100, cur.Total.CriticalPath, golden.Total.CriticalPath)
	}
	return len(drifts) > 0, nil
}

// latest returns the highest-numbered PROFILE_<n>.json in dir — the
// numeric order a lexicographic sort breaks at PROFILE_10. An empty
// name (and nil error) means no golden profile exists yet.
func latest(dir, exclude string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == exclude {
			continue
		}
		numPart, ok := strings.CutPrefix(name, "PROFILE_")
		if !ok {
			continue
		}
		numPart, ok = strings.CutSuffix(numPart, ".json")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(numPart)
		if err != nil || n < 0 {
			continue
		}
		if n > bestN {
			best, bestN = name, n
		}
	}
	return best, nil
}

func load(path string) (*critpath.Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := critpath.DecodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
