package core

// NR is the leaky baseline ("NR" in the paper's plots): reads are plain
// loads (NR's case of Thread.Protect), retired nodes are dropped on the
// floor and never freed. It bounds the best possible read-path
// performance and the worst possible memory behaviour.

// leak is NR's retire: account the nodes and forget them. The retire list
// is drained immediately so its length stays ~0 in the memory plots (NR
// has no deferred-reclamation backlog — the leak shows up in outstanding
// nodes instead), which is also why NR has no pass (see Thread.pass).
func (t *Thread) leak() {
	t.d.leaked.Add(int64(len(t.retired)))
	t.retired = t.retired[:0]
}
