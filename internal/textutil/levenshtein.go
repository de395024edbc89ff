// Package textutil provides the text-processing primitives used by module
// and annotation comparison: Levenshtein edit distance (Levenshtein 1966),
// tokenization with stopword filtering as specified for the Bag of Words
// measure, and set-overlap (Jaccard) helpers.
package textutil

import "unicode/utf8"

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-rune insertions, deletions and substitutions transforming a
// into b. It runs in O(len(a)*len(b)) time and O(min) space.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	// Keep the shorter string in rb to minimise the DP row.
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSimilarity normalises the edit distance into a similarity in
// [0,1]: 1 - dist/max(|a|,|b|). Two empty strings are defined as identical
// (similarity 1).
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	longest := la
	if lb > longest {
		longest = lb
	}
	if longest == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(longest)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
