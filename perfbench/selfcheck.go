package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"

	"repro/internal/forest"
)

// benchPaths are the files and directories that make up the benchmark.
var benchPaths = []string{"BENCHMARK.json", "perfbench"}

// checkNotIgnored fails if the repository's root .gitignore would keep any
// benchmark file out of a commit.  A checkout holds only committed files,
// so an ignored source file would silently vanish from it.  The matcher
// covers the gitignore forms the root file can use: blank and comment
// lines, "!" negation, a trailing "/" for directories, and patterns with a
// slash anchored at the root; a pattern without one matches any path
// component.
func checkNotIgnored(root string) error {
	pats, err := readIgnore(filepath.Join(root, ".gitignore"))
	if err != nil {
		return err
	}
	var bad []string
	for _, p := range benchPaths {
		err := filepath.WalkDir(filepath.Join(root, p), func(file string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			rel, err := filepath.Rel(root, file)
			if err != nil {
				return err
			}
			if ignored(filepath.ToSlash(rel), pats) {
				bad = append(bad, rel)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the root .gitignore ignores %s", strings.Join(bad, ", "))
	}
	return nil
}

type ignorePattern struct {
	glob     string
	negate   bool
	dirOnly  bool
	anchored bool
}

func readIgnore(file string) ([]ignorePattern, error) {
	f, err := os.Open(file)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pats []ignorePattern
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " ")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var p ignorePattern
		if strings.HasPrefix(line, "!") {
			p.negate, line = true, line[1:]
		}
		if strings.HasSuffix(line, "/") {
			p.dirOnly, line = true, strings.TrimSuffix(line, "/")
		}
		p.anchored = strings.Contains(line, "/")
		p.glob = strings.TrimPrefix(line, "/")
		pats = append(pats, p)
	}
	return pats, sc.Err()
}

// ignored reports whether git would ignore the file at the slash-separated
// path rel: the file or one of its directories matches, last pattern wins.
func ignored(rel string, pats []ignorePattern) bool {
	parts := strings.Split(rel, "/")
	for i := range parts {
		prefix := strings.Join(parts[:i+1], "/")
		isDir := i < len(parts)-1
		hit := false
		for _, p := range pats {
			if p.dirOnly && !isDir {
				continue
			}
			target := parts[i]
			if p.anchored {
				target = prefix
			}
			if ok, _ := path.Match(p.glob, target); ok {
				hit = !p.negate
			}
		}
		if hit {
			return true
		}
	}
	return false
}

// plantedFaultCheck proves the output checks are not vacuous: with the
// program's planted preclusion fault switched on, a reduced workload must
// fail its oracle comparison, and without it the same workload must pass.
// The fault is switched off again before the real workload runs.
func plantedFaultCheck(r *result) error {
	b := newBench(faultSpec, 1, filepath.Join(buildDir, "sock"))
	golden, _, err := b.loadGolden(filepath.Join(buildDir, "golden"))
	if err != nil {
		return fmt.Errorf("self-check oracle: %w", err)
	}
	if _, err := b.setup(nil); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	defer b.w.close()
	if err := b.check(b.iterate(), golden); err != nil {
		r.fail("self-check: %s fails without a planted fault: %v", faultSpec.name, err)
	}
	const n = 2
	failed := 0
	func() {
		forest.PreclusionFaultLevels = 1
		defer func() { forest.PreclusionFaultLevels = 0 }()
		for i := 0; i < n; i++ {
			if b.check(b.iterate(), golden) != nil {
				failed++
			}
		}
	}()
	fmt.Printf("self-check: planted fault on %s: failed_frac %.2f (%d/%d)\n", faultSpec.name, float64(failed)/n, failed, n)
	if failed == 0 {
		r.fail("self-check: planted preclusion fault went undetected (failed_frac = 0)")
	}
	return nil
}
