package dataset

// heldSegments counts the segments s has allocated.
func (s *Store) heldSegments() int {
	n := 0
	for _, sg := range s.segs {
		if sg != nil {
			n++
		}
	}
	return n
}
