package sieve

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

const modulePath = "github.com/sieve-microservices/sieve"

// reachabilityAllow lists the functions nothing under cmd/, examples/ or
// bench/ reaches that stay anyway, each with the reason: they are the
// reference a test holds a live path against, never a second spelling of
// something callers use. TestEveryFunctionIsReachable fails when an entry
// becomes reachable or disappears, so the list cannot outlive its reasons.
var reachabilityAllow = map[string]string{
	"internal/kshape.SBD":                   "pairwise distance from raw series: the reference the cached-spectrum kernels are pinned to, and BENCH_kernels' sbd_dist row",
	"internal/kshape.NCC":                   "SBD's normalized cross-correlation profile; part of the same reference",
	"internal/mathx.FFT":                    "full complex transform: the reference RealFFT's half-size path is checked against, and BENCH_kernels' fft/complex rows",
	"internal/mathx.IFFT":                   "FFT's inverse: the round-trip, Parseval and linearity checks on the shared butterfly core, and the half-size inverse of the real inverse transform kshape's fused SBD kernel is held to bit for bit",
	"internal/tsdb.DecompressBlock":         "decode-everything reference for the streaming chunk iterator, the golden chunks and the query-engine equivalence suite",
	"internal/tsdb.newChunkIter":            "DecompressBlock's allocate-and-reset helper (live scans reset a pooled iterator)",
	"internal/tsdb.Sharded.Telemetry":       "typed handle on the store's instruments: storage/server tests and the root benchmarks certify rows by reading counters off it",
	"internal/trace.DecodeEvent":            "round-trip check on the live event encoder (the tracer only ever encodes)",
	"internal/promremote.Marshal":           "remote-write encoder: the receiver tests and BenchmarkRemoteWriteIngest build their requests with it (sieved only decodes)",
	"internal/promremote.marshalTimeSeries": "Marshal's per-series half",
	"internal/promremote.appendMessage":     "Marshal's length-delimited field writer",
}

// TestEveryFunctionIsReachable holds the rule "non-test code contains
// only what a command, an example or the benchmark can run". It
// type-checks the module once (stdlib go/types, standard library from
// source) and walks the static references from the roots: every function
// of a package under cmd/, examples/ or bench/ (bench's own tests
// included), every package-level initialiser and init function, and
// every method whose name some interface declares (dynamic dispatch is
// not followed, so such a method counts as called). _test.go files
// outside bench/ are not roots: what only a test calls is either deleted
// with the test or named in reachabilityAllow. It also logs, per root
// kind, the functions of other packages only that kind reaches (the walk
// again with the kind dropped), so what each of cmd/, examples/ and
// bench/ keeps alive stays visible.
func TestEveryFunctionIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l, err := checkedModule()
	if err != nil {
		t.Fatal(err)
	}
	g := newReachGraph(l)
	unreachable := g.unreachable("")
	base := make(map[string]bool, len(unreachable))
	for _, fn := range unreachable {
		base[fn.name] = true
	}
	for _, kind := range rootKinds {
		var only []string
		for _, fn := range g.unreachable(kind) {
			if !base[fn.name] && fn.kind != kind {
				only = append(only, fn.name)
			}
		}
		t.Logf("%s/ alone reaches %d functions: %s", kind, len(only), strings.Join(only, ", "))
	}
	if len(reachabilityAllow) > 25 {
		t.Errorf("reachabilityAllow has %d entries, the ceiling is 25", len(reachabilityAllow))
	}
	found := make(map[string]bool, len(unreachable))
	var unexpected []string
	for _, fn := range unreachable {
		found[fn.name] = true
		if _, ok := reachabilityAllow[fn.name]; !ok {
			unexpected = append(unexpected, fmt.Sprintf("%s (%s, %d lines)", fn.name, fn.pos, fn.lines))
		}
	}
	if len(unexpected) > 0 {
		t.Errorf("%d functions no command, example or benchmark reaches (delete them, or allow-list a test reference with its reason):\n  %s",
			len(unexpected), strings.Join(unexpected, "\n  "))
	}
	for name, reason := range reachabilityAllow {
		if !found[name] {
			t.Errorf("reachabilityAllow entry %q (%s) is reachable or gone: drop the entry", name, reason)
		}
	}
}

// unreachableFunc is one function declaration the walk did not visit.
type unreachableFunc struct {
	name  string // "internal/mathx.Matrix.Clone", "sieve.Serve"
	kind  string // its package's root kind, "" outside cmd/, examples/ and bench/
	pos   string // file:line
	lines int    // doc comment + body
}

// rootKinds are the top-level directories whose every function is a root.
var rootKinds = []string{"cmd", "examples", "bench"}

// reachPkg is one type-checked module package.
type reachPkg struct {
	rel   string // directory relative to the module root, "." for the facade
	kind  string // the root kind it lies under, or ""
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// reachLoader type-checks each module package once, so a function has one
// *types.Func no matter which package refers to it; everything outside
// the module comes from the standard library's source.
type reachLoader struct {
	fset *token.FileSet
	dir  string
	std  types.Importer
	pkgs map[string]*reachPkg
	ctxt build.Context
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"))
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *reachLoader) load(rel string) (*reachPkg, error) {
	if rel == "" {
		rel = "."
	}
	if p, ok := l.pkgs[rel]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", rel)
		}
		return p, nil
	}
	l.pkgs[rel] = nil
	bp, err := l.ctxt.ImportDir(filepath.Join(l.dir, rel), 0)
	if err != nil {
		delete(l.pkgs, rel)
		return nil, err
	}
	top := strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]
	p := &reachPkg{rel: filepath.ToSlash(rel)}
	if slices.Contains(rootKinds, top) {
		p.kind = top
	}
	names := append([]string(nil), bp.GoFiles...)
	if top == "bench" {
		names = append(names, bp.TestGoFiles...)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.dir, rel, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	importPath := modulePath
	if rel != "." {
		importPath += "/" + p.rel
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(importPath, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", rel, err)
	}
	l.pkgs[rel] = p
	return p, nil
}

// loadModule type-checks every package of the module rooted at dir.
func loadModule(dir string) (*reachLoader, error) {
	fset := token.NewFileSet()
	// The standard library is checked without cgo so the walk needs no C
	// toolchain; the pure-Go fallbacks declare the same API.
	ctxt := build.Default
	ctxt.CgoEnabled = false
	l := &reachLoader{
		fset: fset,
		dir:  dir,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*reachPkg),
		ctxt: ctxt,
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(dir, path)
		var noGo *build.NoGoError
		if _, err := l.load(rel); !errors.As(err, &noGo) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// checkedModule is the one type-check pass TestEveryFunctionIsReachable
// and TestEveryOptionIsSet share.
var checkedModule = sync.OnceValues(func() (*reachLoader, error) { return loadModule(".") })

// reachGraph is the module's static reference graph: one node per
// function declaration, whose edges are the functions its body names
// (calls, method values, function values alike).
type reachGraph struct {
	fset  *token.FileSet
	nodes map[*types.Func]*reachNode
	// always are the roots of every walk: init functions, methods whose
	// name an interface declares, and what package-level variable
	// initialisers name.
	always []*types.Func
}

type reachNode struct {
	pkg  *reachPkg
	decl *ast.FuncDecl
	uses []*types.Func
}

// newReachGraph builds the reference graph of the loaded module.
func newReachGraph(l *reachLoader) *reachGraph {
	// Interface method names: every interface declared or written inline
	// in the module, and every named interface of a package the module
	// imports (error, fmt.Stringer, sort.Interface, http.Handler, ...).
	ifaceMethods := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seenImport := make(map[*types.Package]bool)
	var addImports func(*types.Package)
	addImports = func(tp *types.Package) {
		if seenImport[tp] {
			return
		}
		seenImport[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			addImports(imp)
		}
	}
	for _, p := range l.pkgs {
		addImports(p.types)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := p.info.Types[it]; ok {
						addIface(tv.Type)
					}
				}
				return true
			})
		}
	}

	g := &reachGraph{fset: l.fset, nodes: make(map[*types.Func]*reachNode)}
	usesOf := func(p *reachPkg, n ast.Node) []*types.Func {
		var out []*types.Func
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
			return true
		})
		return out
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					g.nodes[fn] = &reachNode{pkg: p, decl: d, uses: usesOf(p, d)}
					if (d.Recv == nil && d.Name.Name == "init") || (d.Recv != nil && ifaceMethods[d.Name.Name]) {
						g.always = append(g.always, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						g.always = append(g.always, usesOf(p, d)...)
					}
				}
			}
		}
	}
	return g
}

// unreachable walks the static references from g.always and every
// function of a package under a root kind other than drop ("" drops
// none), and returns every function declaration the walk did not visit.
func (g *reachGraph) unreachable(drop string) []unreachableFunc {
	work := append([]*types.Func(nil), g.always...)
	for fn, n := range g.nodes {
		if n.pkg.kind != "" && n.pkg.kind != drop {
			work = append(work, fn)
		}
	}
	reached := make(map[*types.Func]bool)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		if n := g.nodes[fn]; n != nil {
			work = append(work, n.uses...)
		}
	}

	fset := g.fset
	var out []unreachableFunc
	for fn, n := range g.nodes {
		if reached[fn] {
			continue
		}
		name := n.pkg.rel + "."
		if n.pkg.rel == "." {
			name = "sieve."
		}
		if n.decl.Recv != nil {
			name += recvTypeName(n.decl.Recv.List[0].Type) + "."
		}
		name += n.decl.Name.Name
		start := n.decl.Pos()
		if n.decl.Doc != nil {
			start = n.decl.Doc.Pos()
		}
		pos := fset.Position(n.decl.Pos())
		out = append(out, unreachableFunc{
			name:  name,
			kind:  n.pkg.kind,
			pos:   fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
			lines: fset.Position(n.decl.End()).Line - fset.Position(start).Line + 1,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// recvTypeName returns the receiver's type name without pointer or type
// parameters.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// optionAllow lists the fields of an *Options/*Config struct that no
// command, example or benchmark sets and that stay anyway, each with the
// reason. TestEveryOptionIsSet fails when an entry becomes set or
// disappears, so the list cannot outlive its reasons.
var optionAllow = map[string]string{
	"internal/core.ReduceOptions.VarianceThreshold": "the §3.2 variance-filter ablation: BenchmarkAblationVarianceFilter switches the filter off to count the representatives it saves",
}

// TestEveryOptionIsSet holds the rule "an option is something a command,
// an example or the benchmark sets": a field of a struct named *Options
// or *Config (outside bench/) that nothing but its own withDefaults or
// Default<T> constructor writes has one value in use, so it is a
// constant. A write is a composite-literal key (or position), an
// assignment's left-hand side, a ++/--, or an address taken (&opts.F,
// how a flag would bind); fields are resolved through go/types, so
// same-named fields of different structs do not alias. Writers are the
// files TestEveryFunctionIsReachable walks: _test.go outside bench/ is
// not one.
func TestEveryOptionIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l, err := checkedModule()
	if err != nil {
		t.Fatal(err)
	}
	fields := optionFields(l)
	if len(optionAllow) > 5 {
		t.Errorf("optionAllow has %d entries, the ceiling is 5", len(optionAllow))
	}
	unset := make(map[string]bool)
	var unexpected []string
	for _, f := range fields {
		if f.set {
			continue
		}
		unset[f.name] = true
		if _, ok := optionAllow[f.name]; !ok {
			unexpected = append(unexpected, fmt.Sprintf("%s (%s)", f.name, f.pos))
		}
	}
	t.Logf("%d option fields, %d of them unset", len(fields), len(unset))
	if len(unexpected) > 0 {
		t.Errorf("%d option fields no command, example or benchmark sets (make each a constant, or allow-list it with its reason):\n  %s",
			len(unexpected), strings.Join(unexpected, "\n  "))
	}
	for name, reason := range optionAllow {
		if !unset[name] {
			t.Errorf("optionAllow entry %q (%s) is set or gone: drop the entry", name, reason)
		}
	}
}

// optionField is one field of an *Options/*Config struct.
type optionField struct {
	name string // "internal/server.Options.Shards"
	pos  string // file:line
	set  bool   // written outside its struct's own withDefaults and Default<T>
}

// optionFields lists every field of every *Options/*Config struct
// declared outside bench/, and whether any loaded file writes it.
func optionFields(l *reachLoader) []optionField {
	byVar := make(map[*types.Var]*optionField)
	owner := make(map[*types.Var]*types.TypeName)
	for _, p := range l.pkgs {
		if p.rel == "bench" || strings.HasPrefix(p.rel, "bench/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			prefix := p.rel + "."
			if p.rel == "." {
				prefix = "sieve."
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				pos := l.fset.Position(f.Pos())
				byVar[f] = &optionField{
					name: prefix + name + "." + f.Name(),
					pos:  fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
				}
				owner[f] = tn
			}
		}
	}

	for _, p := range l.pkgs {
		for _, file := range p.files {
			for _, d := range file.Decls {
				// Writes inside T.withDefaults, or inside a top-level
				// func DefaultT() T, to T's own fields are the defaulting
				// of an unset option, not a caller setting it.
				var defaultsOf *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok {
					sig := p.info.Defs[fd.Name].(*types.Func).Type().(*types.Signature)
					var t types.Type
					switch {
					case fd.Recv != nil && fd.Name.Name == "withDefaults":
						t = sig.Recv().Type()
					case fd.Recv == nil && sig.Params().Len() == 0 && sig.Results().Len() == 1:
						t = sig.Results().At(0).Type()
					}
					if named, ok := derefType(t).(*types.Named); ok && (fd.Recv != nil || fd.Name.Name == "Default"+named.Obj().Name()) {
						defaultsOf = named.Obj()
					}
				}
				mark := func(v *types.Var) {
					v = v.Origin()
					if f := byVar[v]; f != nil && (defaultsOf == nil || owner[v] != defaultsOf) {
						f.set = true
					}
				}
				markSelector := func(e ast.Expr) {
					for {
						paren, ok := e.(*ast.ParenExpr)
						if !ok {
							break
						}
						e = paren.X
					}
					if se, ok := e.(*ast.SelectorExpr); ok {
						if sel := p.info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
							mark(sel.Obj().(*types.Var))
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := derefType(p.info.Types[n].Type).Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									mark(v)
								}
							} else if i < st.NumFields() {
								mark(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markSelector(lhs)
						}
					case *ast.IncDecStmt:
						markSelector(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markSelector(n.X)
						}
					}
					return true
				})
			}
		}
	}

	out := make([]optionField, 0, len(byVar))
	for _, f := range byVar {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// derefType strips one pointer, so &T{...} literals and pointer
// receivers resolve to T.
func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// sievedLinks is every module package cmd/sieved imports, directly or
// through another: the daemon, its store and the analysis. trace still
// arrives through callgraph.FromSyscallEvents, which takes its events.
var sievedLinks = []string{
	"internal/callgraph",
	"internal/core",
	"internal/granger",
	"internal/jsonenc",
	"internal/kshape",
	"internal/mathx",
	"internal/parallel",
	"internal/promremote",
	"internal/server",
	"internal/snappy",
	"internal/stats",
	"internal/strdist",
	"internal/telemetry",
	"internal/timeseries",
	"internal/trace",
	"internal/tsdb",
}

// sievedDenied are the packages the daemon must never link, each
// matched as itself or as a prefix of "/"-separated subpackages: the lab
// (simulated applications, the load generator, their metric registries
// and the capture driving them), the experiments and the engines they
// feed, and the root facade, which imports the lab.
var sievedDenied = []string{
	".",
	"internal/app",
	"internal/autoscale",
	"internal/experiments",
	"internal/lab",
	"internal/loadgen",
	"internal/metrics",
	"internal/rca",
}

// coreDenied are the packages non-test internal/core must not import:
// the analysis reads a tsdb.ReadStore and never drives a simulator.
var coreDenied = []string{
	"internal/app",
	"internal/lab",
	"internal/loadgen",
	"internal/metrics",
	"internal/trace",
}

// deniedBy returns the entry of denied that rel is or lies under, or "".
func deniedBy(rel string, denied []string) string {
	for _, d := range denied {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return d
		}
	}
	return ""
}

// moduleRel is path relative to the module root ("." for the facade),
// and false for a package outside the module.
func moduleRel(path string) (string, bool) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return "", false
	}
	if rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"); rel != "" {
		return rel, true
	}
	return ".", true
}

// TestSievedLinks pins what the daemon links: it walks cmd/sieved's
// transitive module imports in the shared type-check pass and fails
// naming each package that enters or leaves sievedLinks, so a package
// joins or drops out of the daemon only by an edit to the list; and it
// fails naming any linked package of sievedDenied, whatever the list
// says. It also holds non-test internal/core to importing nothing of
// coreDenied.
func TestSievedLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l, err := checkedModule()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if rel, ok := moduleRel(imp.Path()); ok && !seen[rel] {
				seen[rel] = true
				walk(imp)
			}
		}
	}
	walk(l.pkgs["cmd/sieved"].types)
	for rel := range seen {
		if d := deniedBy(rel, sievedDenied); d != "" {
			t.Errorf("cmd/sieved links %s (denied: %s): the daemon must not link the lab, its engines or the facade", rel, d)
		}
	}
	for _, rel := range sievedLinks {
		if !seen[rel] {
			t.Errorf("cmd/sieved no longer links %s: drop it from sievedLinks", rel)
		}
		delete(seen, rel)
	}
	for rel := range seen {
		t.Errorf("cmd/sieved now links %s: add it to sievedLinks, or cut the import that brings it", rel)
	}
	for _, imp := range l.pkgs["internal/core"].types.Imports() {
		if rel, ok := moduleRel(imp.Path()); ok {
			if d := deniedBy(rel, coreDenied); d != "" {
				t.Errorf("internal/core imports %s (denied: %s): the analysis must not drive a simulator", rel, d)
			}
		}
	}
}
