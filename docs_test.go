package resilientdb_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents every reader starts from, and what they may weigh.
var (
	docFiles = []string{"README.md", "docs/ARCHITECTURE.md"}

	architectureBudget = 50_000 // bytes of docs/ARCHITECTURE.md
	changesEntryLines  = 10     // lines of one CHANGES.md entry
	changesEntryBytes  = 1536   // bytes of one CHANGES.md entry
)

// goPackage is what a document may name in one Go package: its top-level
// declarations, the methods and fields of each of its types, and every
// method or field name whatever its type.
type goPackage struct {
	decls   map[string]bool
	members map[string]bool
	typ     map[string]map[string]bool
}

// quote is text that may cite a section of docs/ARCHITECTURE.md, and the
// file it is in.
type quote struct{ file, text string }

// repoIndex is the code the documents are checked against.
type repoIndex struct {
	files    map[string]bool // repository-relative paths, directories too
	base     map[string]bool // file base names
	tests    map[string]bool // Test*, Benchmark* and Fuzz* functions
	byName   map[string][]*goPackage
	byDir    map[string]*goPackage
	comments []quote // each Go comment group, whitespace collapsed
}

// indexRepo parses every Go file of the module; a directory with a go.mod
// of its own (benchmark/) is another module and is left out.
func indexRepo(t *testing.T) *repoIndex {
	t.Helper()
	ix := &repoIndex{
		files: map[string]bool{}, base: map[string]bool{}, tests: map[string]bool{},
		byName: map[string][]*goPackage{}, byDir: map[string]*goPackage{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			ix.files[p] = true
			if _, err := os.Stat(path.Join(p, "go.mod")); p != "." && err == nil {
				return fs.SkipDir
			}
			return nil
		}
		ix.files[p], ix.base[d.Name()] = true, true
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			ix.comments = append(ix.comments, quote{p, strings.Join(strings.Fields(g.Text()), " ")})
		}
		ix.addDecls(path.Dir(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *repoIndex) addDecls(dir string, f *ast.File) {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	pkg := ix.byDir[dir]
	if pkg == nil {
		pkg = &goPackage{decls: map[string]bool{}, members: map[string]bool{}, typ: map[string]map[string]bool{}}
		ix.byDir[dir] = pkg
		if name != "main" {
			ix.byName[name] = append(ix.byName[name], pkg)
		}
	}
	member := func(typ, m string) {
		if pkg.typ[typ] == nil {
			pkg.typ[typ] = map[string]bool{}
		}
		pkg.typ[typ][m], pkg.members[m] = true, true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pkg.decls[d.Name.Name] = true
				if n := d.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Benchmark") || strings.HasPrefix(n, "Fuzz") {
					ix.tests[n] = true
				}
				continue
			}
			member(recvType(d.Recv.List[0].Type), d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pkg.decls[n.Name] = true
					}
				case *ast.TypeSpec:
					pkg.decls[s.Name.Name] = true
					var fields []*ast.Field
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields.List
					case *ast.InterfaceType:
						fields = tt.Methods.List
					}
					for _, fd := range fields {
						for _, n := range fd.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fd.Names) == 0 { // embedded
							member(s.Name.Name, recvType(fd.Type))
						}
					}
				}
			}
		}
	}
}

// recvType is the type name behind a receiver or an embedded field:
// *T, T[P] and pkg.T all give T.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// resolves reports whether pkg.name (member "") or pkg.name.member names
// code in one of pkgs.
func (ix *repoIndex) resolves(pkgs []*goPackage, name, member string) bool {
	for _, p := range pkgs {
		if member == "" && (p.decls[name] || p.members[name]) {
			return true
		}
		if member != "" && p.decls[name] && hasMember(p, name, member, 4) {
			return true
		}
	}
	return false
}

var (
	backticked  = regexp.MustCompile("`([^`\\s]+)`")
	fileExt     = regexp.MustCompile(`\.(go|md|json|yml|mod)$`)
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)(?:[A-Z0-9_]\w*)?(?:\{[\w,]*\}\w*)?\*?`)
	qualified   = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	snakeMetric = regexp.MustCompile(`^[a-z0-9]+(?:_[a-z0-9]+)+$`)
	archAnchor  = regexp.MustCompile(`ARCHITECTURE\.md#([\w-]+)`)
	localAnchor = regexp.MustCompile(`\]\(#([\w-]+)\)`)
	heading     = regexp.MustCompile(`(?m)^#{1,6} +(.+?) *$`)
	quotedAfter = regexp.MustCompile("\"([^\"]+)\",? in `?docs/ARCHITECTURE\\.md")
	quotedFirst = regexp.MustCompile("ARCHITECTURE\\.md`?,? \"([^\"]+)\"")
)

// TestDocsNameRealCode: every path, test and Go name README.md and
// docs/ARCHITECTURE.md cite exists, and every section of
// docs/ARCHITECTURE.md that they or a Go comment link to or quote by name
// has its heading.
func TestDocsNameRealCode(t *testing.T) {
	ix := indexRepo(t)
	arch := readDoc(t, "docs/ARCHITECTURE.md")
	anchors, sections := map[string]bool{}, map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(arch, -1) {
		anchors[slug(m[1])] = true
		sections[sectionName(m[1])] = true
	}
	for _, doc := range docFiles {
		text := readDoc(t, doc)
		for i, line := range strings.Split(text, "\n") {
			at := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				if !ix.checkPath(m[1]) {
					at("`%s` names no file or directory of the repository", m[1])
				}
			}
			for _, name := range testName.FindAllString(line, -1) {
				if name == "Test" || name == "Benchmark" || name == "Fuzz" {
					continue
				}
				for _, n := range expandBraces(name) {
					if !ix.testExists(n) {
						at("%s names no test, benchmark or fuzz target", n)
					}
				}
			}
			for _, m := range qualified.FindAllStringSubmatch(line, -1) {
				pkgs := ix.byName[m[1]]
				if len(pkgs) == 0 || snakeMetric.MatchString(m[2]) || fileExt.MatchString("."+m[2]) {
					continue
				}
				switch {
				case !ix.resolves(pkgs, m[2], ""):
					at("%s.%s names nothing in package %s", m[1], m[2], m[1])
				case m[3] != "" && isType(pkgs, m[2]) && !ix.resolves(pkgs, m[2], m[3]):
					at("%s.%s.%s: %s.%s has no method or field %s", m[1], m[2], m[3], m[1], m[2], m[3])
				}
			}
			if doc == "docs/ARCHITECTURE.md" {
				for _, m := range localAnchor.FindAllStringSubmatch(line, -1) {
					if !anchors[m[1]] {
						at("#%s matches no heading", m[1])
					}
				}
			}
		}
	}
	quotes := append([]quote{{"README.md", strings.Join(strings.Fields(readDoc(t, "README.md")), " ")}}, ix.comments...)
	for _, q := range quotes {
		for _, m := range archAnchor.FindAllStringSubmatch(q.text, -1) {
			if !anchors[m[1]] {
				t.Errorf("%s links ARCHITECTURE.md#%s, which matches no heading", q.file, m[1])
			}
		}
		for _, re := range []*regexp.Regexp{quotedAfter, quotedFirst} {
			for _, m := range re.FindAllStringSubmatch(q.text, -1) {
				if !sections[sectionName(m[1])] {
					t.Errorf("%s quotes section %q of docs/ARCHITECTURE.md, which has no such heading", q.file, m[1])
				}
			}
		}
	}
}

// TestDocsFitTheirBudgets: docs/ARCHITECTURE.md stays a document one reads
// before a change, and each CHANGES.md entry — a line starting "PR ",
// "FOUND:" or "MENDED:" and the lines after it — stays a short note; the
// full text of every change is in its commit.
func TestDocsFitTheirBudgets(t *testing.T) {
	if n := len(readDoc(t, "docs/ARCHITECTURE.md")); n > architectureBudget {
		t.Errorf("docs/ARCHITECTURE.md is %d bytes, over its budget of %d", n, architectureBudget)
	}
	var entry []string
	start := 0
	check := func() {
		if len(entry) == 0 {
			return
		}
		text := strings.Join(entry, "\n")
		if len(entry) > changesEntryLines || len(text) > changesEntryBytes {
			t.Errorf("CHANGES.md:%d: entry is %d lines and %d bytes, over %d lines or %d bytes: %q",
				start, len(entry), len(text), changesEntryLines, changesEntryBytes, clip(text))
		}
	}
	for i, line := range strings.Split(strings.TrimRight(readDoc(t, "CHANGES.md"), "\n"), "\n") {
		if strings.HasPrefix(line, "PR ") || strings.HasPrefix(line, "FOUND:") || strings.HasPrefix(line, "MENDED:") {
			check()
			entry, start = nil, i+1
		}
		entry = append(entry, line)
	}
	check()
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkPath reports whether a backticked span that looks like a repository
// path names one; spans that are not paths report true. A path may be
// given from the root, from internal/ or from cmd/; a bare file name may
// be anywhere; dir/pkg.Name must name code in the package at dir.
func (ix *repoIndex) checkPath(s string) bool {
	s = strings.TrimPrefix(s, "./")
	if strings.ContainsAny(s, "=$*<>:{}()[]#,'\"") || !strings.Contains(s, "/") && !fileExt.MatchString(s) {
		return true
	}
	p := strings.TrimSuffix(s, "/")
	name := ""
	if dir, file := path.Split(p); dir != "" && !fileExt.MatchString(file) && strings.Contains(file, ".") {
		file, name, _ = strings.Cut(file, ".")
		p = dir + file
	}
	if !strings.Contains(p, "/") {
		return ix.base[p] || ix.files[p]
	}
	for _, root := range []string{"", "internal/", "cmd/"} {
		if !ix.files[root+p] {
			continue
		}
		if name == "" {
			return true
		}
		if pkg := ix.byDir[root+p]; pkg != nil {
			return ix.resolves([]*goPackage{pkg}, name, "")
		}
	}
	// A standard-library package path is not the repository's.
	if fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", p)); err == nil && fi.IsDir() {
		return true
	}
	return false
}

func (ix *repoIndex) testExists(name string) bool {
	if prefix, ok := strings.CutSuffix(name, "*"); ok {
		for n := range ix.tests {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}
	return ix.tests[name]
}

// hasMember reports whether type typ of p, or a type it embeds, has the
// method or field m.
func hasMember(p *goPackage, typ, m string, depth int) bool {
	if p.typ[typ][m] {
		return true
	}
	for e := range p.typ[typ] {
		if depth > 0 && p.typ[e] != nil && hasMember(p, e, m, depth-1) {
			return true
		}
	}
	return false
}

func isType(pkgs []*goPackage, name string) bool {
	for _, p := range pkgs {
		if p.typ[name] != nil {
			return true
		}
	}
	return false
}

// expandBraces turns Name{A,B}Suffix into NameASuffix and NameBSuffix.
func expandBraces(s string) []string {
	i, j := strings.Index(s, "{"), strings.Index(s, "}")
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, s[:i]+alt+s[j+1:])
	}
	return out
}

// slug is the anchor GitHub gives a heading.
func slug(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// sectionName is how prose quotes a heading: without backticks, a leading
// "3." and a trailing "(paper §4.1)", in any case.
var sectionTrim = regexp.MustCompile(`^\d+[a-z]?\.\s+|\s+\([^)]*\)$`)

func sectionName(h string) string {
	return strings.ToLower(sectionTrim.ReplaceAllString(strings.ReplaceAll(h, "`", ""), ""))
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "…"
	}
	return s
}
