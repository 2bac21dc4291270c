// Package locksmell is golden-test input for the locksmell analyzer.
package locksmell

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) bad() int {
	c.mu.Lock() // want `c.mu.Lock\(\) is released by a plain c.mu.Unlock\(\)`
	n := c.n
	c.mu.Unlock()
	return n
}

func (c *counter) good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
