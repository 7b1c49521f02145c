// Command rrcover enforces the repository's per-package test-coverage floor.
// It reads a coverage profile produced by `go test -coverprofile`, computes
// statement coverage per package, and compares it against the committed
// floor file (coverage_floor.json): any floored package that regresses below
// its floor — or disappears from the profile — fails the gate with a
// non-zero exit. Packages not yet floored are reported but do not fail, so
// the gate ratchets coverage without blocking exploratory packages.
//
// Examples:
//
//	go test -coverprofile=cover.out ./...
//	rrcover -profile cover.out                    # gate against coverage_floor.json
//	rrcover -profile cover.out -write             # ratchet the floor file up
//	rrcover -profile cover.out -list              # print per-package coverage
//
// The floor file is ratcheted with -write, which raises each package's floor
// to one percentage point below its measured coverage (rounded down to 0.1)
// to absorb run-to-run noise from timing-dependent paths. It never lowers a
// floor: a package measured below its floor plus that slack keeps its floor,
// and so does a floored package the profile does not cover.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"sort"
	"strings"
)

// Schema identifies the floor file format; readers reject other schemas.
const Schema = "rrsched-cover/v1"

// writeSlack is the percentage-point headroom -write leaves below the
// measured coverage.
const writeSlack = 1.0

// Floors is the committed coverage floor file.
type Floors struct {
	Schema string `json:"schema"`
	// Floors maps import path to the minimum acceptable statement coverage
	// in percent.
	Floors map[string]float64 `json:"floors"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rrcover:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rrcover", flag.ContinueOnError)
	var (
		profile   = fs.String("profile", "cover.out", "coverage profile from `go test -coverprofile`")
		floorPath = fs.String("floor", "coverage_floor.json", "committed floor file")
		write     = fs.Bool("write", false, "ratchet the floor file up from the profile instead of gating")
		list      = fs.Bool("list", false, "print per-package coverage and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*profile)
	if err != nil {
		return err
	}
	defer f.Close() //lint:ignore errcheck read-only file; the read error is what matters
	cov, err := ParseProfile(f)
	if err != nil {
		return err
	}
	if len(cov) == 0 {
		return fmt.Errorf("profile %s covers no packages", *profile)
	}

	if *list {
		for _, pkg := range sortedKeys(cov) {
			_, _ = fmt.Fprintf(stdout, "%-40s %6.1f%%\n", pkg, cov[pkg]) // best-effort listing
		}
		return nil
	}
	if *write {
		return writeFloors(*floorPath, cov)
	}

	ff, err := readFloors(*floorPath)
	if err != nil {
		return err
	}
	failures, unfloored := Gate(ff, cov)
	for _, pkg := range unfloored {
		_, _ = fmt.Fprintf(stdout, "rrcover: note: %s (%.1f%%) has no floor; run -write to ratchet it in\n", pkg, cov[pkg]) // advisory output; the gate result is the exit code
	}
	if len(failures) > 0 {
		return fmt.Errorf("coverage regressed below the committed floor:\n  %s", strings.Join(failures, "\n  "))
	}
	_, _ = fmt.Fprintf(stdout, "rrcover: %d floored packages at or above their floors\n", len(ff.Floors)) // advisory output; the gate result is the exit code
	return nil
}

// Gate checks measured coverage against the floors. It returns one failure
// line per floored package that is missing from the profile or below its
// floor, and the list of measured internal packages that have no floor yet.
func Gate(ff *Floors, cov map[string]float64) (failures, unfloored []string) {
	for _, pkg := range sortedKeys(ff.Floors) {
		floor := ff.Floors[pkg]
		got, ok := cov[pkg]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: floored at %.1f%% but absent from the profile", pkg, floor))
			continue
		}
		if got < floor {
			failures = append(failures, fmt.Sprintf("%s: %.1f%% < floor %.1f%%", pkg, got, floor))
		}
	}
	for _, pkg := range sortedKeys(cov) {
		if _, ok := ff.Floors[pkg]; !ok && strings.Contains(pkg, "/internal/") {
			unfloored = append(unfloored, pkg)
		}
	}
	return failures, unfloored
}

// block is one profile entry's identity; repeated entries for the same
// source block are merged (covered if any run covered it).
type block struct {
	file string
	pos  string
}

// ParseProfile computes per-package statement coverage (in percent) from a
// coverage profile. The format is one "mode:" header line followed by
// "file.go:SL.SC,EL.EC numStmts count" lines.
func ParseProfile(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	stmts := make(map[block]int)
	covered := make(map[block]bool)
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "mode:") {
		return nil, fmt.Errorf("not a coverage profile: missing mode header")
	}
	for i, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		colon := strings.LastIndex(line, ":")
		if colon <= 0 {
			return nil, fmt.Errorf("line %d: no file separator in %q", i+2, line)
		}
		var sl, sc, el, ec, n, count int
		if _, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d", &sl, &sc, &el, &ec, &n, &count); err != nil {
			return nil, fmt.Errorf("line %d: malformed block %q: %v", i+2, line, err)
		}
		if n < 0 || count < 0 {
			return nil, fmt.Errorf("line %d: negative statement or count in %q", i+2, line)
		}
		b := block{file: line[:colon], pos: line[colon+1 : strings.Index(line[colon:], " ")+colon]}
		stmts[b] = n
		if count > 0 {
			covered[b] = true
		}
	}
	type tally struct{ total, hit int }
	byPkg := make(map[string]*tally)
	for b, n := range stmts {
		pkg := path.Dir(b.file)
		t := byPkg[pkg]
		if t == nil {
			t = &tally{}
			byPkg[pkg] = t
		}
		t.total += n
		if covered[b] {
			t.hit += n
		}
	}
	out := make(map[string]float64, len(byPkg))
	for pkg, t := range byPkg {
		if t.total > 0 {
			out[pkg] = 100 * float64(t.hit) / float64(t.total)
		}
	}
	return out, nil
}

func readFloors(path string) (*Floors, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //lint:ignore errcheck read-only file; the read error is what matters
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var ff Floors
	if err := dec.Decode(&ff); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if ff.Schema != Schema {
		return nil, fmt.Errorf("%s: unsupported schema %q (want %q)", path, ff.Schema, Schema)
	}
	return &ff, nil
}

// writeFloors ratchets the floor file at path (a missing one starts empty):
// each measured internal package's floor becomes the higher of its committed
// floor and its coverage minus writeSlack, rounded down to 0.1. Floors of
// packages the profile does not cover stay as they are.
func writeFloors(path string, cov map[string]float64) error {
	ff, err := readFloors(path)
	if errors.Is(err, os.ErrNotExist) {
		ff, err = &Floors{Schema: Schema}, nil
	}
	if err != nil {
		return err
	}
	if ff.Floors == nil {
		ff.Floors = make(map[string]float64, len(cov))
	}
	for pkg, c := range cov {
		if !strings.Contains(pkg, "/internal/") {
			continue
		}
		floor := math.Max(0, math.Floor((c-writeSlack)*10)/10)
		if old, ok := ff.Floors[pkg]; !ok || floor > old {
			ff.Floors[pkg] = floor
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ff); err != nil {
		f.Close() //lint:ignore errcheck the encode error takes precedence
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
