package hashtable

// Buckets returns the bucket count.
func (t *Table) Buckets() int { return len(t.heads) }
