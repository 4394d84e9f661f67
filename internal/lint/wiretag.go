package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// wireTag enforces the wire-format DTO contract: every exported field of
// a Wire*-named struct carries an explicit json tag with a non-empty
// name, and only wire-safe types cross the boundary — no time.Duration
// (durations travel as int64 nanoseconds with an _ns suffix), no
// time.Time, no interfaces, channels, funcs, and no internal package
// types leaking into the public surface.
func wireTag(p *pass, n ast.Node, _ []ast.Node) {
	ts, ok := n.(*ast.TypeSpec)
	if !ok || !strings.HasPrefix(ts.Name.Name, "Wire") {
		return
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		checkWireField(p, ts.Name.Name, field)
	}
}

func checkWireField(p *pass, dto string, field *ast.Field) {
	if len(field.Names) == 0 {
		p.reportf(field.Pos(),
			"%s embeds a field: wire DTOs must spell every field out with an explicit json tag", dto)
		return
	}
	for _, name := range field.Names {
		if !name.IsExported() {
			p.reportf(name.Pos(),
				"%s.%s is unexported and will not serialize; export it or remove it from the wire DTO", dto, name.Name)
			continue
		}
		checkJSONTag(p, dto, name, field)
		if tv, ok := p.TypesInfo.Types[field.Type]; ok {
			if reason := wireUnsafe(tv.Type, make(map[types.Type]bool)); reason != "" {
				p.reportf(name.Pos(), "%s.%s: %s", dto, name.Name, reason)
			}
		}
	}
}

func checkJSONTag(p *pass, dto string, name *ast.Ident, field *ast.Field) {
	if field.Tag == nil {
		p.reportf(name.Pos(),
			"%s.%s has no json tag: wire field names must be explicit, not derived from the Go name", dto, name.Name)
		return
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		p.reportf(field.Tag.Pos(), "%s.%s has an unparsable struct tag", dto, name.Name)
		return
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		p.reportf(name.Pos(),
			"%s.%s has no json tag: wire field names must be explicit, not derived from the Go name", dto, name.Name)
		return
	}
	jsonName, _, _ := strings.Cut(tag, ",")
	if jsonName == "" {
		p.reportf(field.Tag.Pos(),
			"%s.%s json tag has no field name: spell the wire name out explicitly", dto, name.Name)
	}
}

// wireUnsafe returns a non-empty reason if the type must not cross the
// wire boundary.
func wireUnsafe(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Alias:
		return wireUnsafe(types.Unalias(u), seen)
	case *types.Basic:
		switch u.Kind() {
		case types.Bool, types.String,
			types.Int, types.Int8, types.Int16, types.Int32, types.Int64,
			types.Uint, types.Uint8, types.Uint16, types.Uint32, types.Uint64,
			types.Float32, types.Float64:
			return ""
		}
		return fmt.Sprintf("%s is not a wire-safe basic type", u)
	case *types.Pointer:
		return wireUnsafe(u.Elem(), seen)
	case *types.Slice:
		return wireUnsafe(u.Elem(), seen)
	case *types.Array:
		return wireUnsafe(u.Elem(), seen)
	case *types.Map:
		if k, ok := u.Key().Underlying().(*types.Basic); !ok || k.Info()&types.IsString == 0 && k.Info()&types.IsInteger == 0 {
			return fmt.Sprintf("map key %s does not serialize to a JSON object key", u.Key())
		}
		return wireUnsafe(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if reason := wireUnsafe(u.Field(i).Type(), seen); reason != "" {
				return reason
			}
		}
		return ""
	case *types.Interface:
		return "interface types are not self-describing on the wire"
	case *types.Chan:
		return "channels cannot cross the wire"
	case *types.Signature:
		return "funcs cannot cross the wire"
	case *types.Named:
		obj := u.Obj()
		if isDuration(u) {
			return "time.Duration on the wire: encode as integer nanoseconds with an _ns field instead"
		}
		if isNamed(u, "time", "Time") {
			return "time.Time on the wire: encode as integer nanoseconds with an _ns field instead"
		}
		if strings.HasPrefix(obj.Name(), "Wire") {
			return "" // sibling DTO, checked at its own declaration
		}
		if obj.Pkg() != nil && strings.Contains(obj.Pkg().Path(), "/internal/") {
			return fmt.Sprintf("internal type %s leaks into the wire format; define a Wire* representation", obj.Name())
		}
		return wireUnsafe(u.Underlying(), seen)
	}
	return ""
}
