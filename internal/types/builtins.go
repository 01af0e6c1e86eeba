package types

// Builtins is the universe of built-in types supported by the IR
// (Section 3.2: "built-in types (e.g., Int, String, Array) supported by
// the language under test" are a constant input to the generator).
// The hierarchy mirrors the JVM boxed numeric tower used by all three
// target languages: Byte/Short/Int/Long/Float/Double <: Number <: Any,
// plus Boolean, Char, String, and Unit. Translators map the neutral names
// to language spellings (Int → Integer/int in Java, Int in Kotlin, Integer
// in Groovy).
type Builtins struct {
	Any     Type
	Nothing Type

	Number  *Simple
	Byte    *Simple
	Short   *Simple
	Int     *Simple
	Long    *Simple
	Float   *Simple
	Double  *Simple
	Boolean *Simple
	Char    *Simple
	String  *Simple
	Unit    *Simple

	// Array is the built-in invariant Array<T> constructor.
	Array *Constructor

	all, defaultable []Type
}

// NewBuiltins constructs a fresh builtin universe. Each call returns
// independent *Simple values, but Equal compares by name, so universes are
// interchangeable.
func NewBuiltins() *Builtins {
	b := &Builtins{Any: Top{}, Nothing: Bottom{}}
	b.Number = &Simple{TypeName: "Number", Builtin: true}
	mkNum := func(name string) *Simple {
		return &Simple{TypeName: name, Super: b.Number, Builtin: true, Final: true}
	}
	b.Byte = mkNum("Byte")
	b.Short = mkNum("Short")
	b.Int = mkNum("Int")
	b.Long = mkNum("Long")
	b.Float = mkNum("Float")
	b.Double = mkNum("Double")
	b.Boolean = &Simple{TypeName: "Boolean", Builtin: true, Final: true}
	b.Char = &Simple{TypeName: "Char", Builtin: true, Final: true}
	b.String = &Simple{TypeName: "String", Builtin: true, Final: true}
	b.Unit = &Simple{TypeName: "Unit", Builtin: true, Final: true}
	b.Array = NewConstructor("Array", []*Parameter{NewParameter("Array", "T")}, nil)
	// Both slices end at the end of one array, so their capacity is
	// their length and an append to either copies.
	b.all = []Type{
		b.Number, b.Byte, b.Short, b.Int, b.Long, b.Float, b.Double,
		b.Boolean, b.Char, b.String,
	}
	b.defaultable = b.all[1:]
	return b
}

// All returns every ground builtin type (no Array, which is a constructor),
// in a fixed order. The slice is built once and shared by every caller,
// so it is read-only.
func (b *Builtins) All() []Type { return b.all }

// Defaultable returns builtins that have constant literals in the IR
// (val(t) in Fig. 4a); Unit and Number are excluded because no literal
// denotes them directly. Like All, the slice is shared and read-only.
func (b *Builtins) Defaultable() []Type { return b.defaultable }

// ByName resolves a builtin ground type by its neutral name, or nil.
func (b *Builtins) ByName(name string) Type {
	switch name {
	case "Any":
		return b.Any
	case "Nothing":
		return b.Nothing
	case "Number":
		return b.Number
	case "Byte":
		return b.Byte
	case "Short":
		return b.Short
	case "Int":
		return b.Int
	case "Long":
		return b.Long
	case "Float":
		return b.Float
	case "Double":
		return b.Double
	case "Boolean":
		return b.Boolean
	case "Char":
		return b.Char
	case "String":
		return b.String
	case "Unit":
		return b.Unit
	}
	return nil
}
