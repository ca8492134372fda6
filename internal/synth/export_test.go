package synth

import (
	"fmt"
	"unsafe"

	"repro/internal/temporal"
)

// GridStats returns, over every antenna of ds, the distinct (template,
// event schedule) pairs compared by value, the distinct weight grids the
// antennas read, how many of those are built and the heap bytes the built
// ones hold.
func GridStats(ds *Dataset) (pairs, grids, built int, bytes int64) {
	seenPair := map[string]bool{}
	seenGrid := map[*weightGrid]bool{}
	for _, ants := range [][]*Antenna{ds.Indoor, ds.Outdoor} {
		for _, a := range ants {
			seenPair[fmt.Sprintf("%s %v", a.template.Name, a.events)] = true
			g := a.grid
			if seenGrid[g] {
				continue
			}
			seenGrid[g] = true
			if g.normal == nil {
				continue
			}
			built++
			bytes += int64(unsafe.Sizeof(*g)) + 8*int64(cap(g.normal))
			if &g.post[0] != &g.normal[0] {
				bytes += 8 * int64(cap(g.post))
			}
		}
	}
	return len(seenPair), len(seenGrid), built, bytes
}

// GridBytes is the heap bytes of one built grid over cal with separate
// normal and surge-shifted envelope rows.
func GridBytes(cal *temporal.Calendar) int64 {
	return int64(unsafe.Sizeof(weightGrid{})) + 16*int64(cal.Hours())
}
