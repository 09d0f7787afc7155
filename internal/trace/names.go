package trace

// Names interns dimension names: Index gives each distinct name the next
// index, in order of first appearance. It memoizes the last name it was
// asked for, so a stream that repeats a name costs a string comparison
// (usually a pointer equality) instead of a map lookup. The zero value is
// an empty table. Log.AggregateProcs, the collector's cube and the window
// fold's Add intern region and activity names through it.
type Names struct {
	idx  map[string]int
	list []string
	last string
	// lastRef is last's index plus one; 0 while nothing is memoized.
	lastRef int
}

// Index returns name's index, interning the name on first use; added
// reports whether it was new.
func (n *Names) Index(name string) (i int, added bool) {
	if n.lastRef != 0 && name == n.last {
		return n.lastRef - 1, false
	}
	i, ok := n.idx[name]
	if !ok {
		if n.idx == nil {
			n.idx = make(map[string]int)
		}
		i = len(n.list)
		n.idx[name] = i
		n.list = append(n.list, name)
	}
	n.last, n.lastRef = name, i+1
	return i, !ok
}

// List returns the interned names in index order. The caller must not
// modify it.
func (n *Names) List() []string { return n.list }
