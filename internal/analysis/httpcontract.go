package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// HTTPContract gates the coordinator↔worker HTTP protocol. The serving
// packages register routes as `mux.HandleFunc("METHOD /path")` patterns
// and call each other through `http.NewRequest*` and fan-out helpers;
// both sides name paths through the shared serve.Path* constants, so
// every side of the contract constant-folds. The check requires (1)
// every registration pattern to be a constant carrying a method and (2)
// every client-side (method, path) pair to resolve to a registered
// route with a matching method — a client hitting an unregistered path
// or the wrong verb is a build failure, not a runtime 404. The structs
// that cross the same boundary as JSON are wiredrift's.
var HTTPContract = &Check{
	Name: "httpcontract",
	Doc:  "client (method, path) pairs must resolve to registered mux routes",
	Run:  runHTTPContract,
}

// servingPkgs are the two serving roles, the daemon and the
// coordinator: the only packages that talk HTTP. The protocol, its
// response bodies and the structs it carries as JSON all live between
// them; the mining packages neither register nor call routes.
var servingPkgs = map[string]bool{
	"serve":   true,
	"cluster": true,
}

// Route is one registered mux route.
type Route struct {
	Method string
	Path   string
	Pos    token.Position
}

// RouteTable is the module-wide set of registered routes httpcontract
// resolves client call sites against.
type RouteTable struct {
	Routes []Route
}

// routePathRE recognizes a string constant that names a route path:
// a versioned API path, or one of the two well-known probe endpoints.
var routePathRE = regexp.MustCompile(`^(/v1/[a-zA-Z0-9_{}./-]*|/healthz|/metrics)$`)

// httpMethods is the set of constant strings accepted as an HTTP method
// in a client call site (the http.Method* constants fold to these).
var httpMethods = map[string]bool{
	"GET": true, "POST": true, "PUT": true, "PATCH": true,
	"DELETE": true, "HEAD": true, "OPTIONS": true,
}

// constString resolves expr's constant string value, folding through
// named constants and concatenations.
func constString(pkg *Package, expr ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// muxHandleFunc reports whether call is (*http.ServeMux).HandleFunc.
func muxHandleFunc(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "HandleFunc" || len(call.Args) != 2 {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	return ok && isNamed(deref(tv.Type), "net/http", "ServeMux")
}

// parsePattern splits a Go 1.22 ServeMux pattern into method and path.
func parsePattern(pat string) (method, path string) {
	if i := strings.IndexByte(pat, ' '); i > 0 {
		return pat[:i], pat[i+1:]
	}
	return "", pat
}

// collectRoutes scrapes every constant HandleFunc registration in the
// serving packages. Non-constant patterns are skipped here and reported
// by the per-package run.
func collectRoutes(pkgs []*Package) *RouteTable {
	table := &RouteTable{}
	for _, pkg := range pkgs {
		if !servingPkgs[pkg.Types.Name()] {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !muxHandleFunc(pkg, call) {
					return true
				}
				pat, ok := constString(pkg, call.Args[0])
				if !ok {
					return true
				}
				method, path := parsePattern(pat)
				table.Routes = append(table.Routes, Route{
					Method: method, Path: path,
					Pos: pkg.Fset.Position(call.Args[0].Pos()),
				})
				return true
			})
		}
	}
	sort.Slice(table.Routes, func(i, j int) bool {
		a, b := table.Routes[i], table.Routes[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.Method < b.Method
	})
	return table
}

// pathsMatch reports whether a registered path pattern matches a client
// path, treating {wildcard} registration segments as matching any
// single client segment.
func pathsMatch(registered, client string) bool {
	rs := strings.Split(registered, "/")
	cs := strings.Split(client, "/")
	if len(rs) != len(cs) {
		return false
	}
	for i := range rs {
		if rs[i] == cs[i] {
			continue
		}
		if strings.HasPrefix(rs[i], "{") && strings.HasSuffix(rs[i], "}") && cs[i] != "" {
			continue
		}
		return false
	}
	return true
}

// resolveRoute checks one client (method, path) pair against the table.
func resolveRoute(pass *Pass, table *RouteTable, pos token.Pos, method, path string) {
	var methods []string
	for _, r := range table.Routes {
		// Method-less registrations are their own finding and carry no
		// method to check a client pair against.
		if r.Method == "" || !pathsMatch(r.Path, path) {
			continue
		}
		if r.Method == method {
			return
		}
		methods = append(methods, r.Method)
	}
	if len(methods) == 0 {
		pass.Reportf(pos, "client calls %s %s, but no handler registers that path", method, path)
		return
	}
	sort.Strings(methods)
	pass.Reportf(pos, "client calls %s %s, but the route is registered as %s %s",
		method, path, strings.Join(methods, "/"), path)
}

// newRequestFunc returns the index of the method and URL arguments when
// call is http.NewRequest or http.NewRequestWithContext, else (-1, -1).
func newRequestFunc(pkg *Package, call *ast.CallExpr) (methodArg, urlArg int) {
	fn := StaticCallee(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return -1, -1
	}
	switch fn.Name() {
	case "NewRequest":
		return 0, 1
	case "NewRequestWithContext":
		return 1, 2
	}
	return -1, -1
}

// routeOperand finds the route-path constant inside a client URL
// expression: the whole expression if it folds to a route path, or a
// route-shaped constant operand of a `base + path` concatenation.
func routeOperand(pkg *Package, expr ast.Expr) (string, bool) {
	if s, ok := constString(pkg, expr); ok && routePathRE.MatchString(s) {
		return s, true
	}
	if bin, ok := expr.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		if s, ok := routeOperand(pkg, bin.Y); ok {
			return s, true
		}
		return routeOperand(pkg, bin.X)
	}
	return "", false
}

func runHTTPContract(pass *Pass) {
	if !servingPkgs[pass.Types.Name()] {
		return
	}
	table := pass.Module.Routes
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Registrations: the pattern must be constant and carry a
			// method, or clients cannot be resolved against it.
			if muxHandleFunc(pass.Package, call) {
				pat, ok := constString(pass.Package, call.Args[0])
				if !ok {
					pass.Reportf(call.Args[0].Pos(), "HandleFunc pattern is not a constant expression; httpcontract cannot resolve clients against it")
					return true
				}
				if method, path := parsePattern(pat); method == "" {
					pass.Reportf(call.Args[0].Pos(), "route %s is registered without a method; method-less patterns match every verb and cannot be contract-checked", path)
				}
				return true
			}
			// http.NewRequest*: the canonical client site.
			if mi, ui := newRequestFunc(pass.Package, call); mi >= 0 && len(call.Args) > ui {
				method, mok := constString(pass.Package, call.Args[mi])
				path, pok := routeOperand(pass.Package, call.Args[ui])
				if mok && pok {
					resolveRoute(pass, table, call.Args[ui].Pos(), method, path)
				} else if pok && !mok {
					pass.Reportf(call.Args[mi].Pos(), "request for %s is built with a non-constant method; pass the method explicitly so the (method, path) pair can be contract-checked", path)
				}
				return true
			}
			// Fan-out helpers: any other call carrying a route-path
			// constant must also carry a constant method, and the pair
			// must resolve.
			var method, path string
			var havePath bool
			var pathPos token.Pos
			for _, arg := range call.Args {
				if s, ok := routeOperand(pass.Package, arg); ok && !havePath {
					path, havePath, pathPos = s, true, arg.Pos()
				} else if s, ok := constString(pass.Package, arg); ok && httpMethods[s] {
					method = s
				}
			}
			if !havePath {
				return true
			}
			if method == "" {
				pass.Reportf(pathPos, "route %s is passed with no constant HTTP method in the same call; thread the method alongside the path so the pair can be contract-checked", path)
				return true
			}
			resolveRoute(pass, table, pathPos, method, path)
			return true
		})
	}
}
