package corpus

// DropColumns strips the decoded columns from every cached store, as if
// no store had decoded at load, so tests can drive the streaming scan
// over intact documents and compare it with the column scan.
func (c *Corpus) DropColumns() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, s := range c.stores {
		streamed := *s
		streamed.cols = nil
		c.stores[id] = &streamed
	}
	c.publishLocked(nil)
}
