package countrymon

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// registerRE matches a registration site: .Counter("name", .Gauge("name",
// .Histogram("name", .CounterVec("name", .GaugeVec("name" or
// .HistogramVec("name".
var registerRE = regexp.MustCompile(`\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\(\s*"([a-z][a-z0-9_]*)"`)

// catalogueRowRE matches the first backticked cell of a markdown table row.
var catalogueRowRE = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9_]*)`\\s*\\|")

// TestMetricCatalogue keeps README's metric catalogue honest: every metric
// registered in the tree must have a row in it, and every row must name a
// metric the code still registers. Registration sites are found
// syntactically in the non-test Go files of the whole tree, bench/ included;
// internal/obs, whose doc examples are not registrations, and testdata are
// skipped. A catalogue row is any README table row whose first cell is one
// backticked name.
func TestMetricCatalogue(t *testing.T) {
	code, err := registeredMetrics(".")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := catalogueMetrics("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(code) == 0 || len(doc) == 0 {
		t.Fatalf("%d registered metrics, %d catalogue rows: the walk or the README parse found nothing", len(code), len(doc))
	}
	for _, name := range sortedKeys(code) {
		if _, ok := doc[name]; !ok {
			t.Errorf("%s: %s is registered but missing from README.md's metric catalogue", code[name], name)
		}
	}
	for _, name := range sortedKeys(doc) {
		if _, ok := code[name]; !ok {
			t.Errorf("README.md:%d: %s is in the metric catalogue but registered nowhere", doc[name], name)
		}
	}
}

// registeredMetrics maps each metric name registered under root to its first
// registration site ("file:line").
func registeredMetrics(root string) (map[string]string, error) {
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" || path == filepath.Join(root, "internal", "obs") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			line := strings.TrimSpace(sc.Text())
			if strings.HasPrefix(line, "//") {
				continue
			}
			for _, m := range registerRE.FindAllStringSubmatch(line, -1) {
				if _, seen := out[m[2]]; !seen {
					out[m[2]] = fmt.Sprintf("%s:%d", path, n)
				}
			}
		}
		return sc.Err()
	})
	return out, err
}

// catalogueMetrics maps each metric name in a catalogue row of the markdown
// file at path to the row's line number.
func catalogueMetrics(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if m := catalogueRowRE.FindStringSubmatch(sc.Text()); m != nil {
			if _, seen := out[m[1]]; !seen {
				out[m[1]] = n
			}
		}
	}
	return out, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
