// Package cluster is a bodyclose fixture: its name places it among the
// HTTP-speaking packages, so every response obtained from a call must
// reach Body.Close() on all paths that use it. Response mirrors
// net/http.Response's shape (a Body field with a Close method), which
// is all the check matches.
package cluster

import "errors"

type body struct{}

func (body) Close() error { return nil }

type Response struct {
	StatusCode int
	Body       body
}

type client struct{}

func (client) do() (*Response, error) { return &Response{}, nil }

// okDefer closes via defer after the error check; passes.
func okDefer(c client) (int, error) {
	resp, err := c.do()
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// okAllPaths closes before every return that follows a use; passes.
func okAllPaths(c client) (int, error) {
	resp, err := c.do()
	if err != nil {
		return 0, err
	}
	code := resp.StatusCode
	resp.Body.Close()
	return code, nil
}

// leakOnStatus uses the response, then returns early without closing.
func leakOnStatus(c client) error {
	resp, err := c.do() // want `\*http\.Response resp may reach the end of leakOnStatus with its Body unclosed`
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return errors.New("bad status")
	}
	resp.Body.Close()
	return nil
}

// leakOnRedispatch overwrites an open, used response inside the retry
// loop, and the post-loop error return can also leave it unclosed.
func leakOnRedispatch(c client) error {
	resp, err := c.do() // want `resp may be reassigned and may reach the end of leakOnRedispatch while its Body is unclosed`
	for i := 0; i < 2; i++ {
		if err == nil && resp.StatusCode == 200 {
			break
		}
		resp, err = c.do()
	}
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// reassignOnly closes on every exit path but still overwrites an open
// response.
func reassignOnly(c client) int {
	resp, _ := c.do() // want `resp may be reassigned while its Body is still unclosed`
	if resp.StatusCode >= 500 {
		resp, _ = c.do()
	}
	resp.Body.Close()
	return resp.StatusCode
}

// passOn hands the bare response to its caller: the close obligation
// transfers with the value; passes.
func passOn(c client) (*Response, error) {
	resp, err := c.do()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// closeAsync hands the response to a goroutine that closes it; passes
// (ownership escapes into the literal).
func closeAsync(c client, done chan struct{}) error {
	resp, err := c.do()
	if err != nil {
		return err
	}
	go func() {
		resp.Body.Close()
		close(done)
	}()
	return nil
}

func checkStatus(code int) error {
	if code != 200 {
		return errors.New("bad status")
	}
	return nil
}

// leakSuppressed documents why the leak is intended.
func leakSuppressed(c client) error {
	//ermvet:ignore bodyclose fixture exercising the suppression path
	resp, err := c.do()
	if err != nil {
		return err
	}
	return checkStatus(resp.StatusCode)
}
