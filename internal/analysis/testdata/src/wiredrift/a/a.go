// Package a is a wiredrift fixture for the structural rules (the ones
// that need no manifest).
package a

import "encoding/json"

// notAStruct carries the wire marker but is not a struct.
//
//ermvet:wire
type notAStruct int // want `//ermvet:wire marker on notAStruct, which is not a struct type`

// missingVer is a wire struct with no version constant.
//
//ermvet:wire
type missingVer struct { // want `wire struct missingVer has no missingVerVersion integer constant`
	A int
}

// good is a well-formed wire struct.
//
//ermvet:wire
type good struct {
	A int
	B string
}

const goodVersion = 1

// unversioned documents why it stays unversioned.
//
//ermvet:wire
//ermvet:ignore wiredrift fixture exercising the suppression path
type unversioned struct {
	A int
}

// local is not a wire struct, but package a is no serving package: its
// JSON never crosses the process boundary, so the JSON-boundary rule
// leaves it alone.
type local struct {
	A int
}

func save() ([]byte, error) { return json.Marshal(local{}) }
