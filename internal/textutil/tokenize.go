package textutil

import (
	"strings"
	"unicode"
)

// Tokenize implements the Bag of Words preprocessing of Section 2.2:
// the input is split on whitespace and underscores, tokens are lowercased
// and cleansed of non-alphanumeric characters, and empty tokens are dropped.
// Stopwords are NOT removed here; see FilterStopwords.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return unicode.IsSpace(r) || r == '_'
	})
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		var b strings.Builder
		for _, r := range f {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				b.WriteRune(unicode.ToLower(r))
			}
		}
		if b.Len() > 0 {
			out = append(out, b.String())
		}
	}
	return out
}

// stopwords is a compact English stopword list of the kind used for
// workflow-description cleansing. It intentionally covers function words
// only, never domain vocabulary.
var stopwords = map[string]bool{
	"a": true, "about": true, "above": true, "after": true, "again": true,
	"against": true, "all": true, "am": true, "an": true, "and": true,
	"any": true, "are": true, "as": true, "at": true, "be": true,
	"because": true, "been": true, "before": true, "being": true,
	"below": true, "between": true, "both": true, "but": true, "by": true,
	"can": true, "could": true, "did": true, "do": true, "does": true,
	"doing": true, "down": true, "during": true, "each": true, "few": true,
	"for": true, "from": true, "further": true, "get": true, "gets": true,
	"had": true, "has": true, "have": true, "having": true, "he": true,
	"her": true, "here": true, "hers": true, "him": true, "his": true,
	"how": true, "i": true, "if": true, "in": true, "into": true,
	"is": true, "it": true, "its": true, "itself": true, "just": true,
	"me": true, "more": true, "most": true, "my": true, "no": true,
	"nor": true, "not": true, "now": true, "of": true, "off": true,
	"on": true, "once": true, "only": true, "or": true, "other": true,
	"our": true, "ours": true, "out": true, "over": true, "own": true,
	"same": true, "she": true, "should": true, "so": true, "some": true,
	"such": true, "than": true, "that": true, "the": true, "their": true,
	"theirs": true, "them": true, "then": true, "there": true,
	"these": true, "they": true, "this": true, "those": true,
	"through": true, "to": true, "too": true, "under": true, "until": true,
	"up": true, "use": true, "used": true, "uses": true, "using": true,
	"very": true, "was": true, "we": true, "were": true, "what": true,
	"when": true, "where": true, "which": true, "while": true, "who": true,
	"whom": true, "why": true, "will": true, "with": true, "would": true,
	"you": true, "your": true, "yours": true,
}

// IsStopword reports whether the (already lowercased) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// FilterStopwords returns the tokens that are not stopwords, preserving
// order. The input slice is not modified.
func FilterStopwords(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// TokenSet tokenizes, filters stopwords, and deduplicates into a set.
// This is the full Bag of Words preprocessing pipeline (the measure is
// set-based: multiple occurrences of a token are not counted, per the
// paper's note that counted variants performed slightly worse).
func TokenSet(text string) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Tokenize(text) {
		if !stopwords[t] {
			set[t] = true
		}
	}
	return set
}

// SetJaccard computes |A∩B| / |A∪B| for two string sets. Two empty sets have
// similarity 0 (no evidence of similarity, matching the measure's use for
// retrieval: a workflow without annotations matches nothing).
func SetJaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
