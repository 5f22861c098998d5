package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// childRun runs one workload in a child process, the way a comparison
// runs it: a fresh process per run, its result read from its last line.
type childRun struct {
	seconds float64
	trace   int
	quick   bool
}

// run starts bin in dir on workload with seed and waits for it. A run whose
// checks failed still returns its result, with Correct false.
func (cr childRun) run(bin, dir, workload string, seed uint64) (*result, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(cr.seconds, 'g', -1, 64), "--trace", strconv.Itoa(cr.trace)}
	if cr.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || res.Metrics == nil {
		os.Stderr.Write(stderr.Bytes())
		if err == nil {
			err = fmt.Errorf("no result line")
		}
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if !res.Correct {
		os.Stderr.Write(stderr.Bytes())
	}
	return &res, nil
}

// values collects each metric's values over runs.
type values map[string][]float64

func (v values) add(res *result) {
	for name, m := range res.Metrics {
		v[name] = append(v[name], m.Value)
	}
}

// runRepeat runs every named workload n times with seeds seed..seed+n-1,
// each in its own child process, and prints each metric's median,
// quartiles and IQR/median, flagging end-to-end metrics whose spread
// exceeds a third of their bound.
func runRepeat(sp *spec, bin string, names []string, seed uint64, n int, cr childRun) error {
	metrics := sp.EndToEnd
	if cr.trace == 1 {
		metrics = sp.PerLayer
	}
	summary := make(map[string]map[string]map[string]float64)
	ok := true
	for _, w := range names {
		vals := values{}
		for i := 0; i < n; i++ {
			res, err := cr.run(bin, ".", w, seed+uint64(i))
			if err != nil {
				return err
			}
			ok = ok && res.Correct
			vals.add(res)
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", w, n, seed, seed+uint64(n)-1)
		fmt.Printf("  %-34s %12s %12s %12s %9s\n", "metric", "q1", "median", "q3", "iqr/med")
		summary[w] = make(map[string]map[string]float64)
		for _, m := range metrics {
			q1, q2, q3 := quartiles(vals[m.Name])
			spread := relSpread(q1, q2, q3)
			note := ""
			if cr.trace == 0 && m.Name != "setup_s" && spread > m.Bound/3 {
				note = "  over a third of its bound"
			}
			fmt.Printf("  %-34s %12.6g %12.6g %12.6g %9.4f%s\n", m.Name, q1, q2, q3, spread, note)
			summary[w][m.Name] = map[string]float64{"q1": q1, "median": q2, "q3": q3, "iqr_over_median": spread}
		}
	}
	line, _ := json.Marshal(map[string]any{"repeat": n, "workloads": summary})
	fmt.Println(string(line))
	if !ok {
		return fmt.Errorf("a check failed in at least one run")
	}
	return nil
}

func relSpread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// runAB compares this tree (B) against rev (A): pairs runs of each named
// workload, alternating which side runs first, both sides with the same
// seed in a pair and identical benchmark code. It prints each end-to-end
// metric's medians, quartiles, share of pairs B won, and verdict.
func runAB(sp *spec, self, rev string, names []string, seed uint64, pairs int, cr childRun) error {
	baseBin, baseDir, err := buildRev(rev)
	if err != nil {
		return err
	}
	cr.trace = 0
	report := make(map[string]map[string]string)
	for _, w := range names {
		a, b := values{}, values{}
		for i := 0; i < pairs; i++ {
			s := seed + uint64(i)
			type side struct {
				bin, dir string
				vals     values
			}
			order := []side{{baseBin, baseDir, a}, {self, ".", b}}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, sd := range order {
				res, err := cr.run(sd.bin, sd.dir, w, s)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: a check failed", w, s)
				}
				sd.vals.add(res)
			}
		}
		fmt.Printf("%s: %d pairs, A = %s, B = this tree\n", w, pairs, rev)
		fmt.Printf("  %-14s %10s %10s %10s   %10s %10s %10s  %5s  %s\n", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B won", "verdict")
		report[w] = make(map[string]string)
		for _, m := range sp.EndToEnd {
			v, wins := verdict(m, a[m.Name], b[m.Name])
			a1, a2, a3 := quartiles(a[m.Name])
			b1, b2, b3 := quartiles(b[m.Name])
			fmt.Printf("  %-14s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g  %5.2f  %s\n", m.Name, a1, a2, a3, b1, b2, b3, wins, v)
			report[w][m.Name] = v
		}
	}
	line, _ := json.Marshal(map[string]any{"ab": rev, "pairs": pairs, "verdicts": report})
	fmt.Println(string(line))
	return nil
}

// verdict applies the comparison rule to one metric's paired runs (a[i]
// and b[i] share a seed) and also returns the share of pairs B won, ties
// counting for neither. B gains when it wins at least nine tenths of the
// pairs and the medians differ by more than A's quartile spread. Otherwise
// B is "within bound" or "regressed" by the metric's bound, unless the
// runs spread wider than the bound: then it is "unresolved", except when
// every B run reads better than every A run.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if i < len(b) && better(b[i], a[i]) {
			wins++
		}
	}
	share := float64(wins) / float64(max(len(a), 1))
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if better(bm, am) && 10*wins >= 9*len(a) && math.Abs(bm-am) > a3-a1 {
		return "gain", share
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if max(relSpread(a1, am, a3), relSpread(b1, bm, b3)) > m.Bound && !allBetter {
		return "unresolved", share
	}
	worse := (bm - am) / math.Abs(am)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed", share
	}
	return "within bound", share
}

// buildRev builds the benchmark as it runs at rev: rev's tree from git
// archive under .bench_build/ab, overlaid with this tree's bench/ and
// BENCHMARK.json so both sides run identical benchmark code. It returns
// the binary and the tree, which is where that side runs.
func buildRev(rev string) (string, string, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "ab", strings.NewReplacer("/", "_", "~", "_", "^", "_").Replace(rev)))
	if err != nil {
		return "", "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", "", err
	}
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Stderr = os.Stderr
	archive, err := cmd.Output()
	if err != nil {
		return "", "", fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := extractTar(bytes.NewReader(archive), dir); err != nil {
		return "", "", err
	}
	if err := os.RemoveAll(filepath.Join(dir, "bench")); err != nil {
		return "", "", err
	}
	if err := copyTree("bench", filepath.Join(dir, "bench")); err != nil {
		return "", "", err
	}
	if err := copyFile("BENCHMARK.json", filepath.Join(dir, "BENCHMARK.json")); err != nil {
		return "", "", err
	}
	bin := filepath.Join(dir, ".bench_build", "bench")
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin, ".")
	build.Dir = filepath.Join(dir, "bench")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return "", "", fmt.Errorf("building the benchmark at %s: %w", rev, err)
	}
	return bin, dir, nil
}

// extractTar writes the directories and regular files of a tar stream
// under dir, refusing entries that would land outside it.
func extractTar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		target := filepath.Join(dir, hdr.Name)
		if !strings.HasPrefix(target, dir+string(filepath.Separator)) {
			return fmt.Errorf("archive entry %q leaves the tree", hdr.Name)
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(target, 0o755)
		case tar.TypeReg:
			err = writeFile(target, tr, os.FileMode(hdr.Mode).Perm())
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func copyFile(src, dst string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	return writeFile(dst, f, st.Mode().Perm())
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		return copyFile(path, filepath.Join(dst, rel))
	})
}
