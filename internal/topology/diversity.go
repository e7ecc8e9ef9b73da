package topology

// MaxDiversity is the diversity of two servers that differ at every level
// of the hierarchy (binary 111111).
const MaxDiversity = 1<<NumLevels - 1

// Similarity compares the location parts of two servers one by one and
// returns the 6-bit similarity word of the paper: the bit of a level is set
// when both servers carry the same label at that level, with the continent
// at the leftmost (most significant) position.
func Similarity(a, b Location) uint8 {
	var sim uint8
	for l := Continent; l <= Server; l++ {
		// Interned ids make equality one integer compare; ids are 0 only
		// for the zero Location, whose labels are empty and equal anyway.
		if a.ids[l] == b.ids[l] {
			sim |= l.Bit()
		}
	}
	return sim
}

// Diversity returns the geographic diversity of two servers: the bitwise
// NOT of their similarity word, as an integer in [0, 63]. Identical
// locations have diversity 0; locations on different continents have
// diversity 63 (the paper's example: similarity 111000 -> diversity
// 000111 = 7 for two servers sharing continent, country and datacenter).
func Diversity(a, b Location) int {
	return int(^Similarity(a, b) & MaxDiversity)
}
