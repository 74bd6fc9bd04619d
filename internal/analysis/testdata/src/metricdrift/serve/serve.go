// Package serve is a wiredrift fixture for the metricdrift rules: the test
// pins erminerd_known_total and erminerd_dropped_total for this package in
// its golden manifest; the latter is deliberately no longer emitted here.
package serve // want `manifest metric erminerd_dropped_total is no longer emitted by package serve`

import "fmt"

func emit() {
	fmt.Println("erminerd_known_total 1")
	fmt.Println("erminerd_new_total 2") // want `metric erminerd_new_total is not in the golden manifest`
	//ermvet:ignore wiredrift fixture: deliberately unrecorded name to exercise suppression
	fmt.Println("erminerd_suppressed_total 3")
}
