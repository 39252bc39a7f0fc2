package core

// NR is the leaky baseline ("NR" in the paper's plots): reads are plain
// loads (NR's case of Thread.Protect), retired nodes are dropped on the
// floor and never freed (Domain.Unreclaimed counts them from the
// threads' Retires words). It bounds the best possible read-path
// performance and the worst possible memory behaviour.
