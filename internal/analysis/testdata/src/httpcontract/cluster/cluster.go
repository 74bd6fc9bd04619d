// Package cluster is an httpcontract fixture: it registers routes and
// calls them back like the real serving roles.
package cluster

import (
	"context"
	"net/http"
)

const (
	pathRepair = "/v1/repair"
	pathJobs   = "/v1/jobs/{id}"
)

type batch struct {
	Rows int `json:"rows"`
}

func pattern() string { return "GET /v1/dynamic" }

func routes(mux *http.ServeMux) {
	mux.HandleFunc("POST "+pathRepair, nil)
	mux.HandleFunc("GET "+pathJobs, nil)
	mux.HandleFunc(pathRepair, nil)  // want `route /v1/repair is registered without a method`
	mux.HandleFunc(pattern(), nil)   // want `HandleFunc pattern is not a constant expression`
	mux.HandleFunc("/metrics", nil)  // want `route /metrics is registered without a method`
}

func good(ctx context.Context, base string) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+pathRepair, nil)
	_ = req
	_, _ = http.NewRequest("GET", base+"/v1/jobs/7", nil)
}

func wrongMethod(ctx context.Context, base string) {
	_, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+pathRepair, nil) // want `client calls GET /v1/repair, but the route is registered as POST /v1/repair`
}

func missing(base string) {
	_, _ = http.NewRequest("POST", base+"/v1/absent", nil) // want `client calls POST /v1/absent, but no handler registers that path`
}

func varMethod(m, base string) {
	_, _ = http.NewRequest(m, base+pathRepair, nil) // want `request for /v1/repair is built with a non-constant method`
}

func helper(ctx context.Context, method, path string, b batch) {}

func helperNoMethod(ctx context.Context, path string) {}

func fanout(ctx context.Context) {
	helper(ctx, http.MethodPost, pathRepair, batch{})
	helper(ctx, http.MethodDelete, pathRepair, batch{}) // want `client calls DELETE /v1/repair, but the route is registered as POST /v1/repair`
	helperNoMethod(ctx, pathRepair)                     // want `route /v1/repair is passed with no constant HTTP method in the same call`
}

func suppressedMissing(base string) {
	//ermvet:ignore httpcontract fixture: deliberately unregistered path to exercise suppression
	_, _ = http.NewRequest("POST", base+"/v1/absent", nil)
}
