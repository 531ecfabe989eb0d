// Package strdist implements the string-similarity metrics Sieve uses to
// seed k-Shape cluster assignments from metric names (§3.2): developers
// tend to name related metrics similarly ("cpu_usage",
// "cpu_usage_percentile"), so Jaro similarity over names provides a good
// initial clustering that speeds convergence without affecting the final
// result.
package strdist

// Jaro returns the Jaro similarity of two strings in [0, 1]; 1 means
// identical, 0 means no matching characters. Comparison is byte-wise,
// which is adequate for ASCII metric names.
func Jaro(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	// Characters match if equal and within the standard search window.
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatched[j] || a[i] != b[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among the matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity, which boosts the Jaro
// score for strings sharing a common prefix (up to 4 bytes) with the
// standard scaling factor 0.1. Metric families usually share prefixes, so
// this is the default metric for name-based pre-clustering.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
