//! The OpenCL C type system subset used by CLsmith-generated kernels.
//!
//! The paper (§3.1) restricts generation to integer scalar types, the OpenCL
//! vector types of widths 2/4/8/16, structs and unions, fixed-size arrays and
//! pointers qualified by one of the four OpenCL address spaces.  Floating
//! point is deliberately excluded (§9 of the paper).

use std::fmt;

/// An OpenCL C integer scalar type.
///
/// OpenCL mandates exact widths and two's complement representation (§3.1 of
/// the paper), so each variant has a fixed bit width.
///
/// ```
/// use clc::ScalarType;
/// assert_eq!(ScalarType::Int.bits(), 32);
/// assert!(ScalarType::Int.is_signed());
/// assert_eq!(ScalarType::Int.to_unsigned(), ScalarType::UInt);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// 8-bit signed integer.
    Char,
    /// 8-bit unsigned integer.
    UChar,
    /// 16-bit signed integer.
    Short,
    /// 16-bit unsigned integer.
    UShort,
    /// 32-bit signed integer.
    Int,
    /// 32-bit unsigned integer.
    UInt,
    /// 64-bit signed integer.
    Long,
    /// 64-bit unsigned integer.
    ULong,
}

impl ScalarType {
    /// All scalar types, smallest first.
    pub const ALL: [ScalarType; 8] = [
        ScalarType::Char,
        ScalarType::UChar,
        ScalarType::Short,
        ScalarType::UShort,
        ScalarType::Int,
        ScalarType::UInt,
        ScalarType::Long,
        ScalarType::ULong,
    ];

    /// Bit width of the type.
    pub fn bits(self) -> u32 {
        match self {
            ScalarType::Char | ScalarType::UChar => 8,
            ScalarType::Short | ScalarType::UShort => 16,
            ScalarType::Int | ScalarType::UInt => 32,
            ScalarType::Long | ScalarType::ULong => 64,
        }
    }

    /// Whether the type is signed.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            ScalarType::Char | ScalarType::Short | ScalarType::Int | ScalarType::Long
        )
    }

    /// The unsigned type of the same width.
    pub fn to_unsigned(self) -> ScalarType {
        match self {
            ScalarType::Char | ScalarType::UChar => ScalarType::UChar,
            ScalarType::Short | ScalarType::UShort => ScalarType::UShort,
            ScalarType::Int | ScalarType::UInt => ScalarType::UInt,
            ScalarType::Long | ScalarType::ULong => ScalarType::ULong,
        }
    }

    /// The signed type of the same width.
    pub fn to_signed(self) -> ScalarType {
        match self {
            ScalarType::Char | ScalarType::UChar => ScalarType::Char,
            ScalarType::Short | ScalarType::UShort => ScalarType::Short,
            ScalarType::Int | ScalarType::UInt => ScalarType::Int,
            ScalarType::Long | ScalarType::ULong => ScalarType::Long,
        }
    }

    /// The OpenCL C spelling of the type.
    pub fn name(self) -> &'static str {
        match self {
            ScalarType::Char => "char",
            ScalarType::UChar => "uchar",
            ScalarType::Short => "short",
            ScalarType::UShort => "ushort",
            ScalarType::Int => "int",
            ScalarType::UInt => "uint",
            ScalarType::Long => "long",
            ScalarType::ULong => "ulong",
        }
    }

    /// Minimum representable value.
    pub fn min_value(self) -> i128 {
        if self.is_signed() {
            -(1i128 << (self.bits() - 1))
        } else {
            0
        }
    }

    /// Maximum representable value.
    pub fn max_value(self) -> i128 {
        if self.is_signed() {
            (1i128 << (self.bits() - 1)) - 1
        } else {
            (1i128 << self.bits()) - 1
        }
    }

    /// The type produced by C's "usual arithmetic conversions" when combining
    /// two operands of these types (integer promotion to at least `int`, then
    /// the larger / unsigned-preferring rank).
    pub fn usual_arithmetic_conversion(self, other: ScalarType) -> ScalarType {
        let a = self.promoted();
        let b = other.promoted();
        if a == b {
            return a;
        }
        let (wide, narrow) = if a.bits() >= b.bits() { (a, b) } else { (b, a) };
        if wide.bits() > narrow.bits() {
            // Same signedness rank rules collapse to: wider type wins; if the
            // wider type is signed but cannot represent the unsigned narrower
            // type's range it still wins because bits() differ (C99 6.3.1.8).
            if !narrow.is_signed() && wide.is_signed() && wide.bits() == narrow.bits() {
                wide.to_unsigned()
            } else {
                wide
            }
        } else {
            // Same width, differing signedness: unsigned wins.
            wide.to_unsigned()
        }
    }

    /// Integer promotion: anything narrower than `int` becomes `int`.
    pub fn promoted(self) -> ScalarType {
        if self.bits() < 32 {
            ScalarType::Int
        } else {
            self
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Width of an OpenCL vector type (§3.1: lengths 2, 4, 8 and 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VectorWidth {
    /// Two lanes (`int2`, ...).
    W2,
    /// Four lanes.
    W4,
    /// Eight lanes.
    W8,
    /// Sixteen lanes.
    W16,
}

impl VectorWidth {
    /// All supported widths.
    pub const ALL: [VectorWidth; 4] = [
        VectorWidth::W2,
        VectorWidth::W4,
        VectorWidth::W8,
        VectorWidth::W16,
    ];

    /// Number of lanes.
    pub fn lanes(self) -> usize {
        match self {
            VectorWidth::W2 => 2,
            VectorWidth::W4 => 4,
            VectorWidth::W8 => 8,
            VectorWidth::W16 => 16,
        }
    }

    /// The width with the given lane count, if supported.
    pub fn from_lanes(lanes: usize) -> Option<VectorWidth> {
        match lanes {
            2 => Some(VectorWidth::W2),
            4 => Some(VectorWidth::W4),
            8 => Some(VectorWidth::W8),
            16 => Some(VectorWidth::W16),
            _ => None,
        }
    }
}

impl fmt::Display for VectorWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

/// One of the four OpenCL memory spaces (§3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressSpace {
    /// Per-work-item memory (the default for locals).
    #[default]
    Private,
    /// Per-work-group shared memory.
    Local,
    /// Device-wide shared memory.
    Global,
    /// Device-wide read-only memory.
    Constant,
}

impl AddressSpace {
    /// The OpenCL C qualifier keyword, or the empty string for `private`.
    pub fn qualifier(self) -> &'static str {
        match self {
            AddressSpace::Private => "",
            AddressSpace::Local => "local",
            AddressSpace::Global => "global",
            AddressSpace::Constant => "constant",
        }
    }

    /// Whether the space is shared between work-items (local or global).
    ///
    /// The paper calls a location "in shared memory" when it is in either of
    /// these spaces (§3.1).
    pub fn is_shared(self) -> bool {
        matches!(self, AddressSpace::Local | AddressSpace::Global)
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = self.qualifier();
        f.write_str(if q.is_empty() { "private" } else { q })
    }
}

/// Index of a struct (or union) definition within a [`Program`](crate::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub usize);

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A field of a struct or union definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Whether the field is declared `volatile`.
    pub volatile: bool,
}

impl Field {
    /// Creates a non-volatile field.
    pub fn new(name: impl Into<String>, ty: Type) -> Field {
        Field {
            name: name.into(),
            ty,
            volatile: false,
        }
    }

    /// Creates a `volatile` field.
    pub fn volatile(name: impl Into<String>, ty: Type) -> Field {
        Field {
            name: name.into(),
            ty,
            volatile: true,
        }
    }
}

/// A struct or union definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructDef {
    /// Type name as emitted in OpenCL C (`struct S0` / typedef name).
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<Field>,
    /// `true` for a union (fields overlap), `false` for a struct.
    pub is_union: bool,
}

impl StructDef {
    /// Creates a struct definition.
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> StructDef {
        StructDef {
            name: name.into(),
            fields,
            is_union: false,
        }
    }

    /// Creates a union definition.
    pub fn union(name: impl Into<String>, fields: Vec<Field>) -> StructDef {
        StructDef {
            name: name.into(),
            fields,
            is_union: true,
        }
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// An OpenCL C type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// Integer scalar.
    Scalar(ScalarType),
    /// Integer vector (`int4`, `uchar16`, ...).
    Vector(ScalarType, VectorWidth),
    /// Struct or union, by definition index.
    Struct(StructId),
    /// Fixed-size array.
    Array(Box<Type>, usize),
    /// Pointer into a given address space.
    Pointer(Box<Type>, AddressSpace),
}

impl Type {
    /// Shorthand for a scalar type.
    pub fn scalar(ty: ScalarType) -> Type {
        Type::Scalar(ty)
    }

    /// Shorthand for a vector type.
    pub fn vector(elem: ScalarType, width: VectorWidth) -> Type {
        Type::Vector(elem, width)
    }

    /// Shorthand for a pointer to `self` in `space`.
    pub fn pointer_to(self, space: AddressSpace) -> Type {
        Type::Pointer(Box::new(self), space)
    }

    /// Shorthand for an array of `len` elements of `self`.
    pub fn array_of(self, len: usize) -> Type {
        Type::Array(Box::new(self), len)
    }

    /// Whether this is a scalar integer type.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Scalar(_))
    }

    /// Whether this is a vector type.
    pub fn is_vector(&self) -> bool {
        matches!(self, Type::Vector(..))
    }

    /// Whether this is a pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer(..))
    }

    /// Whether this is a struct or union type.
    pub fn is_struct(&self) -> bool {
        matches!(self, Type::Struct(_))
    }

    /// The scalar type of a scalar, or the element type of a vector.
    pub fn scalar_elem(&self) -> Option<ScalarType> {
        match self {
            Type::Scalar(s) => Some(*s),
            Type::Vector(s, _) => Some(*s),
            _ => None,
        }
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Pointer(inner, _) => Some(inner),
            _ => None,
        }
    }

    /// Number of scalar "cells" occupied by a value of this type.
    ///
    /// The interpreter's memory model is cell based rather than byte based;
    /// unions occupy the cell count of their widest member.  Pointers occupy
    /// one cell.
    pub fn cell_count(&self, structs: &[StructDef]) -> usize {
        match self {
            Type::Scalar(_) | Type::Pointer(..) => 1,
            Type::Vector(_, w) => w.lanes(),
            Type::Array(elem, len) => elem.cell_count(structs) * len,
            Type::Struct(id) => {
                let def = &structs[id.0];
                if def.is_union {
                    def.fields
                        .iter()
                        .map(|f| f.ty.cell_count(structs))
                        .max()
                        .unwrap_or(0)
                } else {
                    def.fields.iter().map(|f| f.ty.cell_count(structs)).sum()
                }
            }
        }
    }

    /// Cell offset of field `name` inside a struct of this type.
    ///
    /// Unions always have offset zero.  Returns `None` if this is not a
    /// struct type or the field does not exist.
    pub fn field_offset(&self, name: &str, structs: &[StructDef]) -> Option<usize> {
        self.field_of(name, structs).map(|(offset, _)| offset)
    }

    /// Cell offset and type of field `name` inside a struct of this type
    /// (the first field of that name), found in one pass over the fields.
    ///
    /// Unions always have offset zero.  Returns `None` if this is not a
    /// struct type or the field does not exist.
    pub fn field_of<'s>(&self, name: &str, structs: &'s [StructDef]) -> Option<(usize, &'s Type)> {
        let Type::Struct(id) = self else { return None };
        let def = &structs[id.0];
        let mut offset = 0;
        for f in &def.fields {
            if f.name == name {
                return Some((offset, &f.ty));
            }
            if !def.is_union {
                offset += f.ty.cell_count(structs);
            }
        }
        None
    }

    /// Renders the type as OpenCL C (without address-space qualifier).
    pub fn render(&self, structs: &[StructDef]) -> String {
        match self {
            Type::Scalar(s) => s.name().to_string(),
            Type::Vector(s, w) => format!("{}{}", s.name(), w.lanes()),
            Type::Struct(id) => format!("struct {}", structs[id.0].name),
            Type::Array(elem, len) => format!("{}[{}]", elem.render(structs), len),
            Type::Pointer(inner, space) => {
                let q = space.qualifier();
                if q.is_empty() {
                    format!("{}*", inner.render(structs))
                } else {
                    format!("{} {}*", q, inner.render(structs))
                }
            }
        }
    }
}

impl From<ScalarType> for Type {
    fn from(value: ScalarType) -> Self {
        Type::Scalar(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_widths_and_signs() {
        assert_eq!(ScalarType::Char.bits(), 8);
        assert_eq!(ScalarType::ULong.bits(), 64);
        assert!(ScalarType::Long.is_signed());
        assert!(!ScalarType::UShort.is_signed());
        for ty in ScalarType::ALL {
            assert_eq!(ty.to_unsigned().bits(), ty.bits());
            assert!(!ty.to_unsigned().is_signed());
            assert!(ty.to_signed().is_signed());
        }
    }

    #[test]
    fn scalar_ranges() {
        assert_eq!(ScalarType::Char.min_value(), -128);
        assert_eq!(ScalarType::Char.max_value(), 127);
        assert_eq!(ScalarType::UChar.max_value(), 255);
        assert_eq!(ScalarType::UInt.max_value(), u32::MAX as i128);
        assert_eq!(ScalarType::Long.min_value(), i64::MIN as i128);
        assert_eq!(ScalarType::ULong.max_value(), u64::MAX as i128);
    }

    #[test]
    fn usual_arithmetic_conversions() {
        use ScalarType::*;
        // Narrow types promote to int.
        assert_eq!(Char.usual_arithmetic_conversion(Short), Int);
        assert_eq!(UChar.usual_arithmetic_conversion(UShort), Int);
        // Same width, mixed signedness: unsigned wins.
        assert_eq!(Int.usual_arithmetic_conversion(UInt), UInt);
        assert_eq!(Long.usual_arithmetic_conversion(ULong), ULong);
        // Wider type wins.
        assert_eq!(Int.usual_arithmetic_conversion(Long), Long);
        assert_eq!(UInt.usual_arithmetic_conversion(Long), Long);
        assert_eq!(UInt.usual_arithmetic_conversion(ULong), ULong);
    }

    #[test]
    fn vector_widths() {
        assert_eq!(VectorWidth::W2.lanes(), 2);
        assert_eq!(VectorWidth::from_lanes(16), Some(VectorWidth::W16));
        assert_eq!(VectorWidth::from_lanes(3), None);
    }

    #[test]
    fn address_space_qualifiers() {
        assert_eq!(AddressSpace::Private.qualifier(), "");
        assert_eq!(AddressSpace::Global.qualifier(), "global");
        assert!(AddressSpace::Local.is_shared());
        assert!(!AddressSpace::Constant.is_shared());
    }

    fn sample_structs() -> Vec<StructDef> {
        vec![
            StructDef::new(
                "S0",
                vec![
                    Field::new("a", Type::Scalar(ScalarType::Char)),
                    Field::new("b", Type::Scalar(ScalarType::Short)),
                    Field::new("arr", Type::Scalar(ScalarType::Int).array_of(4)),
                ],
            ),
            StructDef::union(
                "U0",
                vec![
                    Field::new("x", Type::Scalar(ScalarType::UInt)),
                    Field::new("s", Type::Struct(StructId(0))),
                ],
            ),
        ]
    }

    #[test]
    fn cell_counts() {
        let structs = sample_structs();
        assert_eq!(Type::Scalar(ScalarType::Int).cell_count(&structs), 1);
        assert_eq!(
            Type::Vector(ScalarType::Int, VectorWidth::W8).cell_count(&structs),
            8
        );
        // struct S0 = 1 + 1 + 4 cells
        assert_eq!(Type::Struct(StructId(0)).cell_count(&structs), 6);
        // union U0 = max(1, 6)
        assert_eq!(Type::Struct(StructId(1)).cell_count(&structs), 6);
        assert_eq!(
            Type::Struct(StructId(0)).array_of(3).cell_count(&structs),
            18
        );
        assert_eq!(
            Type::Scalar(ScalarType::Int)
                .pointer_to(AddressSpace::Global)
                .cell_count(&structs),
            1
        );
    }

    #[test]
    fn field_offsets() {
        let structs = sample_structs();
        let s0 = Type::Struct(StructId(0));
        assert_eq!(s0.field_offset("a", &structs), Some(0));
        assert_eq!(s0.field_offset("b", &structs), Some(1));
        assert_eq!(s0.field_offset("arr", &structs), Some(2));
        assert_eq!(s0.field_offset("nope", &structs), None);
        let u0 = Type::Struct(StructId(1));
        assert_eq!(u0.field_offset("s", &structs), Some(0));
        assert_eq!(u0.field_offset("x", &structs), Some(0));
    }

    #[test]
    fn rendering() {
        let structs = sample_structs();
        assert_eq!(Type::Scalar(ScalarType::UInt).render(&structs), "uint");
        assert_eq!(
            Type::Vector(ScalarType::Int, VectorWidth::W4).render(&structs),
            "int4"
        );
        assert_eq!(Type::Struct(StructId(0)).render(&structs), "struct S0");
        assert_eq!(
            Type::Scalar(ScalarType::ULong)
                .pointer_to(AddressSpace::Global)
                .render(&structs),
            "global ulong*"
        );
    }
}
