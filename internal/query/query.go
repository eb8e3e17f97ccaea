// Package query reads a raw URL query string where it lies. The serving
// endpoints look up a handful of parameters per request; url.ParseQuery
// builds a map and a slice per parameter to answer that, and the read path
// paid those allocations on every render and every token check. Get and
// Valid walk the string instead and agree with url.ParseQuery on every input
// (FuzzGetMatchesParseQuery): pairs split on '&', a pair holding ';' is
// rejected, keys and values are unescaped with url.QueryUnescape, and a
// parameter's value is its first well-formed occurrence.
package query

import (
	"net/url"
	"strings"
)

// Get returns the first value of key in raw: url.ParseQuery(raw).Get(key),
// malformed pairs skipped as ParseQuery skips them. It allocates only to
// unescape a key or a matching value that holds '%' or '+'.
func Get(raw, key string) string {
	for raw != "" {
		pair := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		k, v := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			k, v = pair[:i], pair[i+1:]
		}
		// A key that differs can still unescape to key, if it is escaped.
		if k != key && !escaped(k) {
			continue
		}
		if u, err := url.QueryUnescape(k); err != nil || u != key {
			continue
		}
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// Valid reports whether url.ParseQuery(raw) returns no error: raw holds no
// ';' and every '%' starts an escape of two hex digits. Neither '&' nor '='
// is a hex digit, so checking escapes across the whole string is checking
// them in every key and value.
func Valid(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case ';':
			return false
		case '%':
			if i+2 >= len(raw) || !isHex(raw[i+1]) || !isHex(raw[i+2]) {
				return false
			}
			i += 2
		}
	}
	return true
}

// escaped reports whether s holds a byte url.QueryUnescape rewrites.
func escaped(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '%' || s[i] == '+' {
			return true
		}
	}
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
