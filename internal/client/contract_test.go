package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestClientDeclaresNoWireTypes keeps the HTTP contract from forking
// again: a JSON-tagged struct field in this package is a second
// declaration of something internal/api (or obs, grid, …) already
// declares — alias that type instead. The parent had 201 such fields.
func TestClientDeclaresNoWireTypes(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if f, ok := n.(*ast.Field); ok && f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`) {
					t.Errorf("%s: struct field tagged %s", fset.Position(f.Pos()), f.Tag.Value)
				}
				return true
			})
		}
	}
}
