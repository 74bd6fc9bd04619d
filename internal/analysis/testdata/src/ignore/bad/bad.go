// Package bad holds malformed ermvet directives; the exact diagnostics
// for this package are pinned by TestMalformedIgnores.
package bad

import "os"

func cleanup(path string) {
	// The reasonless ignore silences nothing.
	//ermvet:ignore errdrop
	os.Remove(path)
}

//ermvet:ignore nosuchcheck because reasons
func unused() []string {
	return nil
}

// typo is meant to be a wire struct.
//
//ermvet:wier
type typo struct{ A int }

func misspelled(path string) {
	//ermvet:ignroe errdrop a misspelled suppression silences nothing
	os.Remove(path)
}
