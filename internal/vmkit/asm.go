package vmkit

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses the line-oriented assembly syntax into a ClassDef.
//
// Syntax (one directive or instruction per line; ';' or '#' starts a
// comment; blank lines ignored):
//
//	.class Name [super Super] [implements I1 I2 ...] [interface] [abstract]
//	.field [static] name Desc
//	.method [static] [native] [abstract] [synchronized] name (params)ret
//	  label:
//	  <mnemonic> [operand]
//	  .catch Type from L1 to L2 using L3
//	.end
//
// Branch operands are labels. SCONST operands are Go-quoted strings.
// Field/method reference operands are "Class.name:Desc" symbols. A method
// declares no frame: the verifier works out its locals and stack depth
// from the code. A trailing "stack N" or "locals N" is read and dropped.
func Assemble(src string) (*ClassDef, error) {
	a := &asm{def: &ClassDef{Super: ClassObject}}
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := a.line(line); err != nil {
			return nil, fmt.Errorf("asm line %d: %w", ln+1, err)
		}
	}
	if a.cur != nil {
		return nil, fmt.Errorf("asm: missing .end for method %s", a.cur.Name)
	}
	if a.def.Name == "" {
		return nil, fmt.Errorf("asm: missing .class directive")
	}
	return a.def, nil
}

// MustAssemble is Assemble that panics on error; for tests and built-in
// class sources that are compiled into the binary.
func MustAssemble(src string) *ClassDef {
	def, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return def
}

// AssembleBytes assembles and encodes in one step.
func AssembleBytes(src string) ([]byte, error) {
	def, err := Assemble(src)
	if err != nil {
		return nil, err
	}
	return EncodeClass(def), nil
}

type asm struct {
	def *ClassDef
	cur *MethodDef // method being assembled, nil between methods

	labels  map[string]int32
	patches []patch // label fixups
	catches []catchPatch
}

type patch struct {
	instr int
	label string
}

type catchPatch struct {
	typ             string
	from, to, using string
}

// stripComment removes a trailing comment. A ';' or '#' starts a comment
// only at the beginning of the line or after whitespace, so the semicolons
// inside type descriptors like "Ljk/lang/Object;" survive. Quoted string
// operands are also protected.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if !inStr {
				inStr = true
			} else if i > 0 && s[i-1] != '\\' {
				inStr = false
			}
		case ';', '#':
			if inStr {
				continue
			}
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

func (a *asm) line(line string) error {
	switch {
	case strings.HasPrefix(line, ".class"):
		return a.classDirective(line)
	case strings.HasPrefix(line, ".field"):
		return a.fieldDirective(line)
	case strings.HasPrefix(line, ".method"):
		return a.methodDirective(line)
	case strings.HasPrefix(line, ".catch"):
		return a.catchDirective(line)
	case line == ".end":
		return a.endMethod()
	case strings.HasSuffix(line, ":") && a.cur != nil:
		name := strings.TrimSuffix(line, ":")
		if name == "" {
			return fmt.Errorf("empty label")
		}
		if _, dup := a.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		a.labels[name] = int32(len(a.cur.Code))
		return nil
	default:
		if a.cur == nil {
			return fmt.Errorf("instruction outside .method: %q", line)
		}
		return a.instruction(line)
	}
}

func (a *asm) classDirective(line string) error {
	if a.def.Name != "" {
		return fmt.Errorf("duplicate .class")
	}
	toks := strings.Fields(line)
	if len(toks) < 2 {
		return fmt.Errorf(".class needs a name")
	}
	a.def.Name = toks[1]
	if !ValidIdent(a.def.Name) {
		return fmt.Errorf("invalid class name %q", a.def.Name)
	}
	if a.def.Name == ClassObject {
		a.def.Super = "" // the root has no superclass
	}
	i := 2
	for i < len(toks) {
		switch toks[i] {
		case "super":
			if i+1 >= len(toks) {
				return fmt.Errorf("super needs a name")
			}
			a.def.Super = toks[i+1]
			i += 2
		case "implements":
			i++
			for i < len(toks) && !isClassKeyword(toks[i]) {
				a.def.Interfaces = append(a.def.Interfaces, toks[i])
				i++
			}
		case "interface":
			a.def.Flags |= FlagInterface | FlagAbstract
			a.def.Super = ClassObject
			i++
		case "abstract":
			a.def.Flags |= FlagAbstract
			i++
		default:
			return fmt.Errorf("unknown .class token %q", toks[i])
		}
	}
	return nil
}

func isClassKeyword(s string) bool {
	switch s {
	case "super", "implements", "interface", "abstract":
		return true
	}
	return false
}

func (a *asm) fieldDirective(line string) error {
	toks := strings.Fields(line)[1:]
	var f FieldDef
	for len(toks) > 0 {
		switch toks[0] {
		case "static":
			f.Static = true
		case "private":
			f.Private = true
		default:
			goto nameDesc
		}
		toks = toks[1:]
	}
nameDesc:
	if len(toks) != 2 {
		return fmt.Errorf(".field wants [static] [private] name desc")
	}
	f.Name, f.Desc = toks[0], toks[1]
	if !ValidIdent(f.Name) {
		return fmt.Errorf("invalid field name %q", f.Name)
	}
	if _, n, err := parseOneDesc(f.Desc); err != nil || n != len(f.Desc) {
		return fmt.Errorf("invalid field descriptor %q", f.Desc)
	}
	a.def.Fields = append(a.def.Fields, f)
	return nil
}

func (a *asm) methodDirective(line string) error {
	if a.cur != nil {
		return fmt.Errorf("nested .method")
	}
	toks := strings.Fields(line)[1:]
	var m MethodDef
	for len(toks) > 0 {
		switch toks[0] {
		case "static":
			m.Flags |= MStatic
		case "native":
			m.Flags |= MNative
		case "abstract":
			m.Flags |= MAbstract
		case "private":
			m.Flags |= MPrivate
		case "synchronized":
			m.Flags |= MSynchronized
		default:
			goto name
		}
		toks = toks[1:]
	}
name:
	if len(toks) < 2 {
		return fmt.Errorf(".method wants name and descriptor")
	}
	m.Name = toks[0]
	m.Desc = toks[1]
	if !ValidIdent(m.Name) {
		return fmt.Errorf("invalid method name %q", m.Name)
	}
	if _, _, err := ParseMethodDesc(m.Desc); err != nil {
		return err
	}
	toks = toks[2:]
	for len(toks) >= 2 {
		if toks[0] != "stack" && toks[0] != "locals" {
			return fmt.Errorf("unknown .method token %q", toks[0])
		}
		if _, err := strconv.Atoi(toks[1]); err != nil {
			return fmt.Errorf("bad %s count %q", toks[0], toks[1])
		}
		toks = toks[2:]
	}
	if len(toks) != 0 {
		return fmt.Errorf("trailing .method tokens %v", toks)
	}
	a.cur = &m
	a.labels = map[string]int32{}
	a.patches = nil
	a.catches = nil
	if m.Flags&(MNative|MAbstract) != 0 {
		// Bodyless methods still need .end for symmetry.
	}
	return nil
}

func (a *asm) catchDirective(line string) error {
	if a.cur == nil {
		return fmt.Errorf(".catch outside .method")
	}
	toks := strings.Fields(line)
	// .catch Type from L1 to L2 using L3
	if len(toks) != 8 || toks[2] != "from" || toks[4] != "to" || toks[6] != "using" {
		return fmt.Errorf(".catch wants: .catch Type from L1 to L2 using L3")
	}
	a.catches = append(a.catches, catchPatch{typ: toks[1], from: toks[3], to: toks[5], using: toks[7]})
	return nil
}

func (a *asm) endMethod() error {
	if a.cur == nil {
		return fmt.Errorf(".end without .method")
	}
	for _, p := range a.patches {
		tgt, ok := a.labels[p.label]
		if !ok {
			return fmt.Errorf("undefined label %q", p.label)
		}
		a.cur.Code[p.instr].I = int64(tgt)
	}
	for _, c := range a.catches {
		from, ok1 := a.labels[c.from]
		to, ok2 := a.labels[c.to]
		using, ok3 := a.labels[c.using]
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("undefined label in .catch %s/%s/%s", c.from, c.to, c.using)
		}
		a.cur.Excs = append(a.cur.Excs, ExcEntry{From: from, To: to, Handler: using, Type: c.typ})
	}
	a.def.Methods = append(a.def.Methods, *a.cur)
	a.cur = nil
	return nil
}

func (a *asm) instruction(line string) error {
	mnem := line
	operand := ""
	if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		mnem, operand = line[:sp], strings.TrimSpace(line[sp+1:])
	}
	op, ok := opByName[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	info := opTable[op]
	in := Instr{Op: op}
	switch {
	case info.branch:
		if operand == "" {
			return fmt.Errorf("%s wants a label", mnem)
		}
		a.patches = append(a.patches, patch{instr: len(a.cur.Code), label: operand})
	case info.hasI:
		n, err := strconv.ParseInt(operand, 0, 64)
		if err != nil {
			return fmt.Errorf("%s wants an integer, got %q", mnem, operand)
		}
		in.I = n
	case info.hasF:
		f, err := strconv.ParseFloat(operand, 64)
		if err != nil {
			return fmt.Errorf("%s wants a float, got %q", mnem, operand)
		}
		in.F = f
	case info.hasS:
		s := operand
		if strings.HasPrefix(s, `"`) {
			var err error
			s, err = strconv.Unquote(s)
			if err != nil {
				return fmt.Errorf("%s: bad string literal %s", mnem, operand)
			}
		}
		in.S = s
	default:
		if operand != "" {
			return fmt.Errorf("%s takes no operand", mnem)
		}
	}
	a.cur.Code = append(a.cur.Code, in)
	return nil
}

// Disassemble renders a ClassDef in (re-assemblable) textual form.
func Disassemble(def *ClassDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".class %s", def.Name)
	if def.Flags&FlagInterface != 0 {
		b.WriteString(" interface")
	} else if def.Super != "" && def.Super != ClassObject {
		fmt.Fprintf(&b, " super %s", def.Super)
	}
	if len(def.Interfaces) > 0 {
		b.WriteString(" implements")
		for _, it := range def.Interfaces {
			b.WriteByte(' ')
			b.WriteString(it)
		}
	}
	if def.Flags&FlagAbstract != 0 && def.Flags&FlagInterface == 0 {
		b.WriteString(" abstract")
	}
	b.WriteByte('\n')
	for _, f := range def.Fields {
		mods := ""
		if f.Static {
			mods += "static "
		}
		if f.Private {
			mods += "private "
		}
		fmt.Fprintf(&b, ".field %s%s %s\n", mods, f.Name, f.Desc)
	}
	for i := range def.Methods {
		m := &def.Methods[i]
		b.WriteString(".method ")
		if m.Flags&MStatic != 0 {
			b.WriteString("static ")
		}
		if m.Flags&MNative != 0 {
			b.WriteString("native ")
		}
		if m.Flags&MAbstract != 0 {
			b.WriteString("abstract ")
		}
		if m.Flags&MPrivate != 0 {
			b.WriteString("private ")
		}
		if m.Flags&MSynchronized != 0 {
			b.WriteString("synchronized ")
		}
		fmt.Fprintf(&b, "%s %s\n", m.Name, m.Desc)
		// Labels for every branch target and handler boundary.
		targets := map[int32]string{}
		want := func(pc int32) string {
			if name, ok := targets[pc]; ok {
				return name
			}
			name := fmt.Sprintf("L%d", pc)
			targets[pc] = name
			return name
		}
		for _, in := range m.Code {
			if in.Op.IsBranch() {
				want(int32(in.I))
			}
		}
		for _, e := range m.Excs {
			want(e.From)
			want(e.To)
			want(e.Handler)
		}
		for pc, in := range m.Code {
			if name, ok := targets[int32(pc)]; ok {
				fmt.Fprintf(&b, "%s:\n", name)
			}
			if in.Op.IsBranch() {
				fmt.Fprintf(&b, "  %s %s\n", in.Op.Name(), want(int32(in.I)))
				continue
			}
			info := opTable[in.Op]
			switch {
			case info.hasS:
				fmt.Fprintf(&b, "  %s %q\n", in.Op.Name(), in.S)
			case info.hasF:
				fmt.Fprintf(&b, "  %s %v\n", in.Op.Name(), in.F)
			case info.hasI:
				fmt.Fprintf(&b, "  %s %d\n", in.Op.Name(), in.I)
			default:
				fmt.Fprintf(&b, "  %s\n", in.Op.Name())
			}
		}
		if name, ok := targets[int32(len(m.Code))]; ok {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		for _, e := range m.Excs {
			fmt.Fprintf(&b, "  .catch %s from %s to %s using %s\n",
				e.Type, want(e.From), want(e.To), want(e.Handler))
		}
		b.WriteString(".end\n")
	}
	return b.String()
}
