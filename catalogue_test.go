package countrymon

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registerRE matches a registration site: .Counter("name", .Gauge("name",
// .Histogram("name", .CounterVec("name", .GaugeVec("name" or
// .HistogramVec("name".
var registerRE = regexp.MustCompile(`\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\(\s*"([a-z][a-z0-9_]*)"`)

// tableNameRE matches one backticked name in a markdown table cell.
var tableNameRE = regexp.MustCompile("`([a-z][a-z0-9_]*)`")

// TestMetricCatalogue keeps README's metric catalogue honest: every metric
// registered in the tree must have a row in it, and every row must name a
// metric the code still registers. Registration sites are found
// syntactically in the non-test Go files of the whole tree, bench/ included;
// internal/obs, whose doc examples are not registrations, and testdata are
// skipped. A catalogue row is a row of the README table headed `metric`
// whose first cell is one backticked name.
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
	rows, err := tableRows(path, "metric")
	out := make(map[string]int)
	for _, row := range rows {
		if names := tableNameRE.FindAllStringSubmatch(row.cells[0], -1); len(names) == 1 && strings.TrimSpace(row.cells[0]) == names[0][0] {
			if _, seen := out[names[0][1]]; !seen {
				out[names[0][1]] = row.line
			}
		}
	}
	return out, err
}

// tableRow is one body row of a markdown table: its line and its cells.
type tableRow struct {
	line  int
	cells []string
}

// tableRows returns the body rows of the tables in the markdown file at path
// whose header's first cell is header, each row with at least as many cells
// as the header.
func tableRows(path, header string) ([]tableRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []tableRow
	width := 0 // the current table's header width; 0 outside a matching table
	for n, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "|") {
			width = 0
			continue
		}
		cells := strings.Split(strings.Trim(strings.ReplaceAll(line, `\|`, "\x00"), "|"), "|")
		for i := range cells {
			cells[i] = strings.ReplaceAll(cells[i], "\x00", "|")
		}
		switch {
		case width == 0 && strings.TrimSpace(cells[0]) == header:
			width = len(cells)
		case width > 0 && len(cells) >= width && !strings.HasPrefix(strings.TrimSpace(cells[0]), "---"):
			rows = append(rows, tableRow{line: n + 1, cells: cells})
		}
	}
	return rows, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// eventBuses maps the receiver of every Emit and Publish site to the bus it
// is: a Monitor's (m.bus) and a fleet campaign's (c.bus) are their country's
// scope, and so is a scan's Events, which its Monitor or campaign sets; the
// fleet supervisor's (s.cfg.Bus, c.s.cfg.Bus), over the vantages every
// country shares, and the portal's (p.bus) are unscoped.
var eventBuses = map[string]string{
	"m.bus": "by country", "c.bus": "by country", "r.cfg.Events": "by country",
	"s.cfg.Bus": "shared", "c.s.cfg.Bus": "shared", "p.bus": "shared",
}

// TestEventCatalogue keeps README's event table honest both ways: every
// event kind published anywhere in the tree must have a row, whose fields
// are the json keys of the payload struct its sites publish and whose
// country column is `by country` or `shared` as its sites' bus is a
// country's scope or not; and every row must name a kind the code still
// publishes. Sites are found in the syntax of the non-test Go files outside
// internal/obs (whose doc examples publish nothing) and bench/ (whose
// synthetic events feed its own load). A site's kind is a string literal or
// a variable assigned string literals in the same function; its payload is
// the struct of its own package that it builds, whose json tags must list
// its keys in sorted order — the order encoding/json writes a map's keys,
// so a payload encodes as the map of its keys would. A site that builds no
// such struct (a map, say) fails. A row is a row of the README table headed
// `event`: the kind, the backticked field keys and the country column.
func TestEventCatalogue(t *testing.T) {
	type kindInfo struct {
		site  string // first site, "file:line"
		keys  map[string]bool
		scope string
	}
	code := make(map[string]*kindInfo)
	err := eventSites(".", func(site, bus string, kinds []string, payload string, keys []string) {
		scope, ok := eventBuses[bus]
		if !ok {
			t.Errorf("%s: events published on %s, a bus TestEventCatalogue does not know", site, bus)
		}
		switch {
		case payload == "":
			t.Errorf("%s: %v published without a payload struct of the site's package", site, kinds)
		case !sort.StringsAreSorted(keys):
			t.Errorf("%s: payload %s declares its keys [%s] out of sorted order, so it does not encode as the map of its keys", site, payload, strings.Join(keys, ", "))
		}
		for _, kind := range kinds {
			k := code[kind]
			if k == nil {
				k = &kindInfo{site: site, keys: make(map[string]bool), scope: scope}
				code[kind] = k
			}
			if k.scope != scope {
				t.Errorf("%s: %s published %s here, %s at %s", site, kind, scope, k.scope, k.site)
			}
			for _, key := range keys {
				k.keys[key] = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tableRows("README.md", "event")
	if err != nil {
		t.Fatal(err)
	}
	if len(code) == 0 || len(rows) == 0 {
		t.Fatalf("%d event kinds published, %d table rows: the walk or the README parse found nothing", len(code), len(rows))
	}
	doc := make(map[string]bool)
	for _, row := range rows {
		kind := tableNameRE.FindStringSubmatch(row.cells[0])
		if kind == nil {
			t.Errorf("README.md:%d: an event row without a backticked kind", row.line)
			continue
		}
		doc[kind[1]] = true
		k := code[kind[1]]
		if k == nil {
			t.Errorf("README.md:%d: %s is in the event table but published nowhere", row.line, kind[1])
			continue
		}
		var keys []string
		for _, m := range tableNameRE.FindAllStringSubmatch(row.cells[1], -1) {
			keys = append(keys, m[1])
		}
		sort.Strings(keys)
		if got, want := strings.Join(keys, ", "), strings.Join(sortedKeys(k.keys), ", "); got != want {
			t.Errorf("README.md:%d: %s lists fields [%s]; %s and its other sites set [%s]", row.line, kind[1], got, k.site, want)
		}
		if got := strings.TrimSpace(row.cells[2]); got != k.scope {
			t.Errorf("README.md:%d: %s is %q in the table, %q at %s", row.line, kind[1], got, k.scope, k.site)
		}
	}
	for _, kind := range sortedKeys(code) {
		if !doc[kind] {
			t.Errorf("%s: %s is published but missing from README.md's event table", code[kind].site, kind)
		}
	}
}

// eventSites calls visit for every Emit and Publish call in the non-test Go
// files under root (outside internal/obs, bench and testdata) with its
// position, its receiver, the kinds it can publish and the payload struct it
// builds: a struct type of the site's package named by a composite literal
// in the call's payload argument, and its json keys in declaration order
// (empty names when it builds none).
func eventSites(root string, visit func(site, bus string, kinds []string, payload string, keys []string)) error {
	type site struct {
		pos, bus, dir string
		kinds, types  []string
	}
	var sites []site
	payloads := make(map[string][]string) // "dir.Type": the struct's json keys
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case d.Name() == ".git", d.Name() == "testdata", d.Name() == "bench" && filepath.Dir(path) == root,
				path == filepath.Join(root, "internal", "obs"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, decl := range f.Decls {
			if gen, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gen.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							payloads[dir+"."+ts.Name.Name] = jsonKeys(st)
						}
					}
				}
				continue
			}
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Emit" && sel.Sel.Name != "Publish") {
					return true
				}
				pos := fset.Position(call.Pos())
				sites = append(sites, site{pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line), bus: types.ExprString(sel.X),
					dir: dir, kinds: stringValues(fn.Body, call.Args[0]), types: literalTypes(call.Args[1])})
				return true
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range sites {
		payload, keys := "", []string(nil)
		for _, name := range s.types {
			if k, ok := payloads[s.dir+"."+name]; ok {
				payload, keys = name, k
			}
		}
		visit(s.pos, s.bus, s.kinds, payload, keys)
	}
	return nil
}

// literalTypes returns the type names of the composite literals built in e
// whose type is a plain identifier: the candidates for a site's payload.
func literalTypes(e ast.Expr) []string {
	var names []string
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok {
			if id, ok := lit.Type.(*ast.Ident); ok {
				names = append(names, id.Name)
			}
		}
		return true
	})
	return names
}

// jsonKeys returns the keys encoding/json writes for st's exported fields,
// in declaration order: each json tag's name, or the field's own name when
// its tag has none; a field tagged "-" writes no key.
func jsonKeys(st *ast.StructType) []string {
	var keys []string
	for _, field := range st.Fields.List {
		tag := ""
		if field.Tag != nil {
			raw, _ := strconv.Unquote(field.Tag.Value)
			tag, _, _ = strings.Cut(reflect.StructTag(raw).Get("json"), ",")
		}
		for _, name := range field.Names {
			switch {
			case !name.IsExported() || tag == "-":
			case tag != "":
				keys = append(keys, tag)
			default:
				keys = append(keys, name.Name)
			}
		}
	}
	return keys
}

// stringValues returns the string literals e can be: e itself, or every
// literal assigned to the variable e names within body.
func stringValues(body *ast.BlockStmt, e ast.Expr) []string {
	if s, ok := stringLit(e); ok {
		return []string{s}
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				if l, ok := lhs.(*ast.Ident); ok && l.Name == id.Name {
					if s, ok := stringLit(as.Rhs[i]); ok {
						out = append(out, s)
					}
				}
			}
		}
		return true
	})
	return out
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
