package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// WireDrift gates the module's two golden-manifest contracts against
// silent drift; both live in one committed manifest (ManifestPath).
//
//   - Wire shapes: the gob checkpoint and model snapshots, and the
//     rules JSON. A struct marked with an //ermvet:wire directive in its
//     doc comment is a wire root: its field names, types (transitively
//     expanded through module-local structs) and tags are hashed and
//     compared against the manifest. Any shape change fails the gate
//     unless the struct's <name>Version constant was bumped and the
//     manifest regenerated with `ermvet -update` — so breaking a
//     checkpoint or rule-file format is always an explicit, reviewed
//     decision, never a casual field rename. (DESIGN.md decision 15
//     records why this is a source-shape manifest rather than a gob
//     round-trip.)
//   - The JSON boundary: in the serving packages (servingPkgs), every
//     module-local struct handed directly to encoding/json crosses the
//     coordinator↔worker process boundary, so it must be a wire root
//     too — marked in its package, or recorded in the manifest when
//     another package declares it — and the two ends can never decode
//     different layouts of the same route. Elsewhere encoding/json
//     writes local files, which the marked roots already cover.
//   - Metric names: every erminerd_*/ermcluster_* name the daemon and
//     the coordinator emit. Dashboards and alert rules key on these
//     names by string, so a rename or drop is a breaking interface
//     change that deserves a reviewed manifest diff, not a silent
//     scrape gap. There is no version constant to bump: the name is the
//     whole contract, so `ermvet -update` simply records it.
var WireDrift = &Check{
	Name: "wiredrift",
	Doc:  "//ermvet:wire struct shapes and erminerd_/ermcluster_ metric names must match the golden manifest; changes need ermvet -update (plus a version bump for shapes); serve/cluster JSON structs must be wire structs",
	Run:  runWireDrift,
}

// ManifestPath is the golden manifest's module-root-relative path. It
// lives under the analyzer's testdata so the module loader never tries
// to compile it, while `go test ./internal/analysis` can pin it.
const ManifestPath = "internal/analysis/testdata/manifest.json"

const wireMarker = "//ermvet:wire"

// WireShape is one wire struct's golden record.
type WireShape struct {
	// Version mirrors the struct's <name>Version constant at the time
	// the manifest was generated.
	Version int `json:"version"`
	// Hash is the sha256 of the canonical transitively-expanded shape
	// string.
	Hash string `json:"hash"`
	// Fields lists the top-level fields ("Name type" plus the tag when
	// present) for human-readable diffs; the hash is the gate.
	Fields []string `json:"fields"`
}

// Manifest is the committed golden manifest.
type Manifest struct {
	// Structs maps each fully qualified wire struct name
	// ("erminer/internal/rlminer.checkpointWire") to its shape.
	Structs map[string]WireShape `json:"structs"`
	// Metrics maps each metric name to the package (by package name,
	// e.g. "serve") that emits it. The owner is recorded so a dropped
	// name is reported against the package that used to emit it, and so
	// each package only polices its own names.
	Metrics map[string]string `json:"metrics"`
}

// loadManifest reads a manifest written by Write.
func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading golden manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("analysis: parsing golden manifest %s: %w", path, err)
	}
	return &m, nil
}

// Write writes the manifest with sorted keys and a trailing newline, so
// regeneration produces minimal diffs.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// wireStruct is one //ermvet:wire-marked declaration found in a
// package.
type wireStruct struct {
	name    string
	pos     token.Pos
	st      *types.Struct // nil when the marked type is not a struct
	version int
	hasVer  bool
	verPos  token.Pos
}

// collectWireStructs scrapes the marked structs of one package and
// resolves their version constants.
func collectWireStructs(pkg *Package) []wireStruct {
	var out []wireStruct
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasWireMarker(gd.Doc) && !hasWireMarker(ts.Doc) && !hasWireMarker(ts.Comment) {
					continue
				}
				ws := wireStruct{name: ts.Name.Name, pos: ts.Name.Pos()}
				if obj := pkg.Types.Scope().Lookup(ts.Name.Name); obj != nil {
					if st, ok := obj.Type().Underlying().(*types.Struct); ok {
						ws.st = st
					}
				}
				if c, ok := pkg.Types.Scope().Lookup(ts.Name.Name + "Version").(*types.Const); ok {
					if v, exact := constant.Int64Val(c.Val()); exact {
						ws.version = int(v)
						ws.hasVer = true
						ws.verPos = c.Pos()
					}
				}
				out = append(out, ws)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func hasWireMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == wireMarker || strings.HasPrefix(c.Text, wireMarker+" ") {
			return true
		}
	}
	return false
}

// CollectWireShapes computes the live shape of every marked wire struct
// across the given packages, keyed by fully qualified name. Marked
// types that are not structs or lack their version constant are
// skipped here; runWireDrift reports them.
func CollectWireShapes(pkgs []*Package) map[string]WireShape {
	shapes := make(map[string]WireShape)
	for _, pkg := range pkgs {
		for _, ws := range collectWireStructs(pkg) {
			if ws.st == nil || !ws.hasVer {
				continue
			}
			shapes[pkg.Path+"."+ws.name] = liveShape(pkg, ws)
		}
	}
	return shapes
}

func liveShape(pkg *Package, ws wireStruct) WireShape {
	canon := renderStruct(ws.st, moduleRootOf(pkg.Path), map[string]bool{pkg.Path + "." + ws.name: true})
	sum := sha256.Sum256([]byte(canon))
	shape := WireShape{
		Version: ws.version,
		Hash:    hex.EncodeToString(sum[:]),
	}
	for i := 0; i < ws.st.NumFields(); i++ {
		f := ws.st.Field(i)
		line := f.Name() + " " + types.TypeString(f.Type(), nil)
		if tag := ws.st.Tag(i); tag != "" {
			line += " `" + tag + "`"
		}
		shape.Fields = append(shape.Fields, line)
	}
	return shape
}

// moduleRootOf returns the leading path segment ("erminer" for
// "erminer/internal/rl"), which decides whether a named struct is
// module-local and gets expanded, or foreign (standard library) and
// stays an opaque qualified name.
func moduleRootOf(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// renderStruct produces the canonical shape string: field names, fully
// rendered types (module-local named structs expanded in place, with a
// seen-set breaking cycles) and tags, in declaration order. This is
// exactly what gob and encoding/json key on — names, order, kinds and
// tags — so hashing it detects every change those encoders would
// observe.
func renderStruct(st *types.Struct, modRoot string, seen map[string]bool) string {
	var b strings.Builder
	b.WriteString("struct{")
	for i := 0; i < st.NumFields(); i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		f := st.Field(i)
		b.WriteString(f.Name())
		b.WriteByte(' ')
		b.WriteString(renderType(f.Type(), modRoot, seen))
		if tag := st.Tag(i); tag != "" {
			b.WriteString(" `" + tag + "`")
		}
	}
	b.WriteString("}")
	return b.String()
}

func renderType(t types.Type, modRoot string, seen map[string]bool) string {
	switch t := t.(type) {
	case *types.Basic:
		return t.Name()
	case *types.Pointer:
		return "*" + renderType(t.Elem(), modRoot, seen)
	case *types.Slice:
		return "[]" + renderType(t.Elem(), modRoot, seen)
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), renderType(t.Elem(), modRoot, seen))
	case *types.Map:
		return "map[" + renderType(t.Key(), modRoot, seen) + "]" + renderType(t.Elem(), modRoot, seen)
	case *types.Named:
		obj := t.Obj()
		qual := obj.Name()
		if obj.Pkg() != nil {
			qual = obj.Pkg().Path() + "." + obj.Name()
		}
		st, isStruct := t.Underlying().(*types.Struct)
		if isStruct && obj.Pkg() != nil && moduleRootOf(obj.Pkg().Path()) == modRoot && !seen[qual] {
			seen[qual] = true
			return qual + renderStruct(st, modRoot, seen)
		}
		if !isStruct && obj.Pkg() != nil && moduleRootOf(obj.Pkg().Path()) == modRoot {
			// A module-local named non-struct (type Duration int64 etc.):
			// its underlying representation is the wire shape.
			return qual + "=" + renderType(t.Underlying(), modRoot, seen)
		}
		return qual
	default:
		// Interfaces, channels, signatures: not meaningfully
		// serializable; their printed form is stable enough to pin.
		return t.String()
	}
}

// metricNameRE matches a serving-stack metric name inside a string
// literal. The two prefixes are the daemon's and the coordinator's;
// scanning literals (rather than one blessed const block) means the
// gate also catches a raw Fprintf that bypasses the name constants.
var metricNameRE = regexp.MustCompile(`\b(?:erminerd|ermcluster)_[a-z0-9_]+`)

// collectMetricLiterals scrapes every metric name mentioned in the
// package's string literals, keeping the first occurrence's position
// for reporting.
func collectMetricLiterals(pkg *Package) map[string]token.Pos {
	found := make(map[string]token.Pos)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			for _, name := range metricNameRE.FindAllString(s, -1) {
				if _, ok := found[name]; !ok {
					found[name] = lit.Pos()
				}
			}
			return true
		})
	}
	return found
}

// CollectMetricNames computes the live metric names across the given
// packages: every name found in a string literal, mapped to the
// emitting package's name.
func CollectMetricNames(pkgs []*Package) map[string]string {
	live := make(map[string]string)
	for _, pkg := range pkgs {
		for name := range collectMetricLiterals(pkg) {
			live[name] = pkg.Types.Name()
		}
	}
	return live
}

func runWireDrift(pass *Pass) {
	manifest := pass.Module.Manifest
	livePresent := make(map[string]bool)
	for _, ws := range collectWireStructs(pass.Package) {
		key := pass.Path + "." + ws.name
		livePresent[key] = true
		if ws.st == nil {
			pass.Reportf(ws.pos, "//ermvet:wire marker on %s, which is not a struct type", ws.name)
			continue
		}
		if !ws.hasVer {
			pass.Reportf(ws.pos, "wire struct %s has no %sVersion integer constant; declare one so shape changes can be versioned", ws.name, ws.name)
			continue
		}
		if manifest == nil {
			continue // no golden manifest in this run: structural rules only
		}
		entry, ok := manifest.Structs[key]
		if !ok {
			pass.Reportf(ws.pos, "wire struct %s is not in the golden manifest (%s); record it with ermvet -update", ws.name, ManifestPath)
			continue
		}
		live := liveShape(pass.Package, ws)
		switch {
		case live.Hash == entry.Hash && live.Version == entry.Version:
			// In sync.
		case live.Hash != entry.Hash && live.Version == entry.Version:
			pass.Reportf(ws.pos,
				"wire shape of %s changed without a version bump (manifest hash %.12s, live %.12s): this silently breaks files written by the old format — bump %sVersion and regenerate with ermvet -update",
				ws.name, entry.Hash, live.Hash, ws.name)
		case live.Hash == entry.Hash && live.Version != entry.Version:
			pass.Reportf(ws.verPos,
				"%sVersion is %d but the manifest records %d for an identical shape; regenerate with ermvet -update",
				ws.name, live.Version, entry.Version)
		default:
			pass.Reportf(ws.pos,
				"wire shape of %s changed and %sVersion was bumped (%d → %d); regenerate the manifest with ermvet -update",
				ws.name, ws.name, entry.Version, live.Version)
		}
	}
	if servingPkgs[pass.Types.Name()] {
		checkJSONBoundary(pass, livePresent)
	}
	if manifest == nil {
		return
	}
	// Manifest entries this package owns but no longer declares or emits
	// are reported at its first file's package clause.
	pos := token.NoPos
	if len(pass.Files) > 0 {
		pos = pass.Files[0].Pos()
	}
	var stale []string
	for key := range manifest.Structs {
		if dot := strings.LastIndexByte(key, '.'); dot >= 0 && key[:dot] == pass.Path && !livePresent[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		pass.Reportf(pos, "manifest entry %s has no //ermvet:wire struct in the package; regenerate with ermvet -update", key)
	}

	found := collectMetricLiterals(pass.Package)
	names := make([]string, 0, len(found))
	for name := range found {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := manifest.Metrics[name]; !ok {
			pass.Reportf(found[name],
				"metric %s is not in the golden manifest (%s); dashboards cannot see unrecorded names — add it with ermvet -update",
				name, ManifestPath)
		}
	}
	// A manifest name owned by this package with no remaining literal was
	// renamed or dropped: the scrape consumers keyed on it break.
	var gone []string
	for name, owner := range manifest.Metrics {
		if _, ok := found[name]; owner == pass.Types.Name() && !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		pass.Reportf(pos,
			"manifest metric %s is no longer emitted by package %s; renaming or dropping a metric breaks its scrape consumers — regenerate with ermvet -update",
			name, pass.Types.Name())
	}
}

// jsonBoundaryArg returns the value argument when call is a direct
// encoding/json Marshal/Unmarshal/Encode/Decode, else nil.
func jsonBoundaryArg(pkg *Package, call *ast.CallExpr) ast.Expr {
	fn := StaticCallee(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return nil
	}
	switch fn.Name() {
	case "Marshal", "Unmarshal", "Encode", "Decode":
		// Marshal(v) / Encode(v): arg 0; Unmarshal(data, v) / Decode(v):
		// the value is the last argument in every signature.
		if len(call.Args) == 0 {
			return nil
		}
		return call.Args[len(call.Args)-1]
	}
	return nil
}

// checkJSONBoundary requires the module-local named struct of every
// encoding/json value argument in the package to be a wire struct:
// marked here (marked holds this package's markers) or recorded in the
// manifest. Interface-typed arguments (the generic WriteJSON/DecodeJSON
// helpers) and non-struct types are out of scope.
func checkJSONBoundary(pass *Pass, marked map[string]bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg := jsonBoundaryArg(pass.Package, call)
			if arg == nil {
				return true
			}
			tv, ok := pass.Info.Types[arg]
			if !ok || tv.Type == nil {
				return true
			}
			t := tv.Type
			for t != deref(t) {
				t = deref(t)
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			pkgPath := named.Obj().Pkg().Path()
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct || moduleRootOf(pkgPath) != moduleRootOf(pass.Path) {
				return true
			}
			key := pkgPath + "." + named.Obj().Name()
			if marked[key] {
				return true
			}
			if m := pass.Module.Manifest; m != nil {
				if _, ok := m.Structs[key]; ok {
					return true
				}
			}
			pass.Reportf(arg.Pos(),
				"%s crosses the HTTP boundary via encoding/json but is not an //ermvet:wire-versioned shape; mark it so both ends pin the same layout",
				key)
			return true
		})
	}
}

// UpdateManifest regenerates the manifest from the live shapes and
// metric names, refusing wire entries whose shape changed while the
// version constant did not: the bump is the reviewable signal that a
// format break is intentional. Metric names carry no version
// discipline, but the rewrite still goes through review as a manifest
// diff. old may be nil (first generation).
func UpdateManifest(old *Manifest, pkgs []*Package) (*Manifest, error) {
	live := CollectWireShapes(pkgs)
	var frozen []string
	if old != nil {
		for key, entry := range old.Structs {
			if l, ok := live[key]; ok && l.Hash != entry.Hash && l.Version == entry.Version {
				frozen = append(frozen, key)
			}
		}
		sort.Strings(frozen)
	}
	if len(frozen) > 0 {
		return nil, fmt.Errorf("analysis: refusing to update the golden manifest: shape of %s changed without a version bump (bump the Version constant first)",
			strings.Join(frozen, ", "))
	}
	return &Manifest{Structs: live, Metrics: CollectMetricNames(pkgs)}, nil
}
