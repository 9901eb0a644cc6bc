// Package annot parses the //horus: annotation comments the horus-vet
// analyzers honor. Two forms exist:
//
//   - File-level markers ("//horus:wallclock — <reason>") must appear
//     in the file's header — at or above the package clause — so a
//     reader sees the exemption before any code, and a marker buried
//     mid-file cannot silently exempt new escapes. detlint asks for
//     the wallclock marker on every non-test file of a bridge package.
//   - Line-level markers ("//horus:stackcheck-ok — <reason>") suppress
//     one finding, on the same line as the flagged expression or on
//     the line directly above it. Negative tests that feed the
//     property algebra deliberately malformed stacks use these.
//
// Every marker should carry a reason after the tag; the parsers only
// match the tag, but the reason is the contract with the reviewer.
package annot

import (
	"go/ast"
	"go/token"
	"strings"
)

// prefix is the shared namespace of all marker comments.
const prefix = "//horus:"

// hasTag reports whether a single comment carries the given marker
// tag, e.g. tag "wallclock" matches "//horus:wallclock" optionally
// followed by whitespace and a reason.
func hasTag(c *ast.Comment, tag string) bool {
	text := c.Text
	if !strings.HasPrefix(text, prefix) {
		return false
	}
	rest := strings.TrimPrefix(text, prefix)
	if !strings.HasPrefix(rest, tag) {
		return false
	}
	rest = rest[len(tag):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// FileMarker reports whether file carries the marker tag in its
// header: in the package doc comment or in any comment group that
// ends before the package name.
func FileMarker(file *ast.File, tag string) bool {
	if file.Doc != nil {
		for _, c := range file.Doc.List {
			if hasTag(c, tag) {
				return true
			}
		}
	}
	for _, group := range file.Comments {
		if group.End() > file.Name.Pos() {
			break
		}
		for _, c := range group.List {
			if hasTag(c, tag) {
				return true
			}
		}
	}
	return false
}

// LineMarker reports whether the line holding pos, or the line
// directly above it, carries the marker tag as a comment in file.
func LineMarker(fset *token.FileSet, file *ast.File, pos token.Pos, tag string) bool {
	line := fset.Position(pos).Line
	for _, group := range file.Comments {
		for _, c := range group.List {
			cl := fset.Position(c.Pos()).Line
			if (cl == line || cl == line-1) && hasTag(c, tag) {
				return true
			}
		}
	}
	return false
}
