// Package cluster is a wiredrift fixture for the JSON-boundary rule: in
// a serving package, every module-local struct handed to encoding/json
// crosses the process boundary and must be a wire struct.
package cluster

import (
	"encoding/json"
	"io"
)

//ermvet:wire
type batch struct {
	Rows int `json:"rows"`
}

const batchVersion = 1

var _ = batchVersion

type plain struct {
	N int `json:"n"`
}

type code int

func send(w io.Writer, b batch, p plain, v any) {
	_, _ = json.Marshal(b)
	_, _ = json.Marshal(&b)
	_, _ = json.Marshal(p)              // want `fixture/wiredrift/cluster.plain crosses the HTTP boundary via encoding/json but is not an //ermvet:wire-versioned shape`
	_ = json.NewEncoder(w).Encode(&p)   // want `fixture/wiredrift/cluster.plain crosses the HTTP boundary`
	_ = json.Unmarshal([]byte("{}"), v) // interface-typed: the generic helpers' shape is checked at their callers
	_, _ = json.Marshal(code(1))        // not a struct
}

func suppressedSend(p plain) {
	//ermvet:ignore wiredrift fixture: deliberately unversioned struct to exercise suppression
	_, _ = json.Marshal(p)
}
