package schedule

import "slices"

// readyList holds one (sample, layer) pair's ready atoms in ascending ID
// order, stored as buf[head:]. Picks take atoms from the front and
// lookahead rollbacks return them there, so the gap before head lets both
// run in O(1); a removal or insertion elsewhere shifts whichever side of
// the list is shorter.
type readyList struct {
	buf  []int
	head int
}

// ids returns the ready atoms, ascending. The slice is valid until the
// next insert or remove.
func (r *readyList) ids() []int { return r.buf[r.head:] }

func (r *readyList) len() int { return len(r.buf) - r.head }

// insert adds id, which must not be present.
func (r *readyList) insert(id int) {
	ids := r.ids()
	if len(ids) == 0 || ids[len(ids)-1] < id {
		r.buf = append(r.buf, id) // newly ready consumers arrive in ID order
		return
	}
	i, _ := slices.BinarySearch(ids, id)
	if r.head > 0 && i <= len(ids)/2 {
		// Shift the i smaller IDs one slot into the gap.
		r.head--
		copy(r.buf[r.head:], ids[:i])
		r.buf[r.head+i] = id
		return
	}
	r.buf = slices.Insert(r.buf, r.head+i, id)
}

// remove deletes id and reports whether it was present.
func (r *readyList) remove(id int) bool {
	ids := r.ids()
	var i int
	switch {
	case len(ids) == 0:
		return false
	case ids[0] == id: // picks take from the front
	case ids[len(ids)-1] == id: // rollbacks retract the newest arrivals
		i = len(ids) - 1
	default:
		var ok bool
		if i, ok = slices.BinarySearch(ids, id); !ok {
			return false
		}
	}
	switch {
	case len(ids) == 1:
		r.buf, r.head = r.buf[:0], 0
	case i < len(ids)/2:
		// Shift the i smaller IDs one slot right, widening the gap.
		copy(ids[1:i+1], ids[:i])
		r.head++
	default:
		r.buf = slices.Delete(r.buf, r.head+i, r.head+i+1)
	}
	return true
}
