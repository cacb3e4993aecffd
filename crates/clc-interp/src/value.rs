//! Runtime values: fixed-width two's complement scalars, vectors, pointers
//! and flattened aggregates.
//!
//! OpenCL mandates exact integer widths and two's complement representation
//! (§3.1 of the paper), so every scalar is stored as the raw bit pattern in a
//! `u64` together with its [`ScalarType`]; arithmetic masks results back to
//! the type's width, which makes unsigned overflow and the "safe math"
//! wrapping semantics exact.

use clc::{AddressSpace, ScalarType, Type};
use std::fmt;

/// A scalar runtime value: a bit pattern plus its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar {
    /// The scalar type (determines width and signedness).
    pub ty: ScalarType,
    /// The raw bits, already masked to the type's width.
    pub bits: u64,
}

impl Scalar {
    /// Creates a scalar from a (possibly out-of-range) signed value,
    /// wrapping to the type's width.
    pub fn from_i128(value: i128, ty: ScalarType) -> Scalar {
        Scalar {
            ty,
            bits: mask(value as u64, ty),
        }
    }

    /// Creates a scalar from raw bits (masked to width).
    pub fn from_bits(bits: u64, ty: ScalarType) -> Scalar {
        Scalar {
            ty,
            bits: mask(bits, ty),
        }
    }

    /// A zero of the given type.
    pub fn zero(ty: ScalarType) -> Scalar {
        Scalar { ty, bits: 0 }
    }

    /// The signed interpretation of the bits.
    pub fn as_i64(self) -> i64 {
        sign_extend(self.bits, self.ty)
    }

    /// The unsigned interpretation of the bits.
    pub fn as_u64(self) -> u64 {
        self.bits
    }

    /// Whether the value is non-zero (C truthiness).
    pub fn is_true(self) -> bool {
        self.bits != 0
    }

    /// Converts to another scalar type (truncation / sign- or zero-extension
    /// exactly as C conversions behave on two's complement machines).
    pub fn convert(self, to: ScalarType) -> Scalar {
        if self.ty.is_signed() {
            Scalar::from_i128(self.as_i64() as i128, to)
        } else {
            Scalar::from_i128(self.as_u64() as i128, to)
        }
    }

    /// Renders the value the way a CLsmith host program would print it
    /// (signed types as signed decimals, unsigned as unsigned decimals).
    pub fn render(self) -> String {
        if self.ty.is_signed() {
            self.as_i64().to_string()
        } else {
            self.as_u64().to_string()
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.render(), self.ty)
    }
}

/// Masks a bit pattern to the width of `ty`.
pub fn mask(bits: u64, ty: ScalarType) -> u64 {
    match ty.bits() {
        8 => bits & 0xff,
        16 => bits & 0xffff,
        32 => bits & 0xffff_ffff,
        _ => bits,
    }
}

/// Sign-extends masked bits according to `ty`.
pub fn sign_extend(bits: u64, ty: ScalarType) -> i64 {
    let width = ty.bits();
    if !ty.is_signed() {
        return bits as i64;
    }
    let shift = 64 - width;
    ((bits << shift) as i64) >> shift
}

/// Identifies an allocated object in the [`Memory`](crate::memory::Memory)
/// store: a slot of the store's object table plus the slot's generation at
/// allocation.  A freed slot is reused by later allocations under a new
/// generation, so an id stays invalid once its object is freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId {
    /// Index of the object's slot in the store.
    pub slot: u32,
    /// How many earlier objects the slot held.
    pub generation: u32,
}

/// A typed pointer value: an object, a cell offset within it, the pointee
/// type and the address space the pointer refers to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointerValue {
    /// Target object.
    pub obj: ObjId,
    /// Cell offset within the object.
    pub offset: usize,
    /// Pointee type (determines the stride of indexing).
    pub pointee: Type,
    /// Address space of the target object.
    pub space: AddressSpace,
}

/// A single memory cell: one scalar slot or one pointer slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Cell {
    /// Uninitialised memory.  Reading it is reported as undefined behaviour
    /// so that the reducer never introduces reads of indeterminate values.
    #[default]
    Uninit,
    /// A scalar bit pattern (the static type of the enclosing declaration
    /// determines the interpretation).
    Bits(u64),
    /// A pointer.
    Ptr(PointerValue),
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Integer scalar.
    Scalar(Scalar),
    /// Integer vector: element type plus one bit pattern per lane.
    Vector(ScalarType, Vec<u64>),
    /// Pointer.
    Pointer(PointerValue),
    /// A struct or array rvalue, flattened to cells (used for whole-struct
    /// assignment and struct-by-value argument passing).
    Aggregate(Type, Vec<Cell>),
}

impl Value {
    /// A scalar `int` value.
    pub fn int(v: i64) -> Value {
        Value::Scalar(Scalar::from_i128(v as i128, ScalarType::Int))
    }

    /// A scalar of the given type.
    pub fn scalar(v: i128, ty: ScalarType) -> Value {
        Value::Scalar(Scalar::from_i128(v, ty))
    }

    /// Interprets the value as a scalar, if it is one.
    pub fn as_scalar(&self) -> Option<Scalar> {
        match self {
            Value::Scalar(s) => Some(*s),
            _ => None,
        }
    }

    /// C truthiness of the value (used for conditions).
    pub fn is_true(&self) -> Option<bool> {
        match self {
            Value::Scalar(s) => Some(s.is_true()),
            Value::Pointer(_) => Some(true),
            Value::Vector(_, lanes) => Some(lanes.iter().any(|&l| l != 0)),
            Value::Aggregate(..) => None,
        }
    }

    /// A short description of the value's shape for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Scalar(_) => "scalar",
            Value::Vector(..) => "vector",
            Value::Pointer(_) => "pointer",
            Value::Aggregate(..) => "aggregate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_and_sign_extension() {
        let c = Scalar::from_i128(-1, ScalarType::Char);
        assert_eq!(c.bits, 0xff);
        assert_eq!(c.as_i64(), -1);
        assert_eq!(c.as_u64(), 0xff);
        let u = Scalar::from_i128(300, ScalarType::UChar);
        assert_eq!(u.as_u64(), 44);
        let i = Scalar::from_i128(i128::from(i32::MIN) - 1, ScalarType::Int);
        assert_eq!(i.as_i64(), i64::from(i32::MAX));
    }

    #[test]
    fn conversions_match_c_semantics() {
        // (uint)(char)-1 == 0xffffffff
        let c = Scalar::from_i128(-1, ScalarType::Char);
        assert_eq!(c.convert(ScalarType::UInt).as_u64(), 0xffff_ffff);
        // (char)(uint)255 == -1
        let u = Scalar::from_i128(255, ScalarType::UInt);
        assert_eq!(u.convert(ScalarType::Char).as_i64(), -1);
        // (ulong)(int)-1 == u64::MAX
        let i = Scalar::from_i128(-1, ScalarType::Int);
        assert_eq!(i.convert(ScalarType::ULong).as_u64(), u64::MAX);
        // (int)(ulong)u64::MAX == -1
        let l = Scalar::from_bits(u64::MAX, ScalarType::ULong);
        assert_eq!(l.convert(ScalarType::Int).as_i64(), -1);
    }

    #[test]
    fn rendering_respects_signedness() {
        assert_eq!(Scalar::from_i128(-1, ScalarType::Int).render(), "-1");
        assert_eq!(
            Scalar::from_i128(-1, ScalarType::UInt).render(),
            "4294967295"
        );
        assert_eq!(
            Scalar::from_bits(0xffff_0001, ScalarType::ULong).render(),
            "4294901761"
        );
    }

    #[test]
    fn truthiness() {
        assert!(Value::int(3).is_true().unwrap());
        assert!(!Value::int(0).is_true().unwrap());
        assert!(Value::Vector(ScalarType::Int, vec![0, 0, 1, 0])
            .is_true()
            .unwrap());
        assert!(!Value::Vector(ScalarType::Int, vec![0, 0])
            .is_true()
            .unwrap());
    }

    #[test]
    fn value_kinds() {
        assert_eq!(Value::int(1).kind(), "scalar");
        assert_eq!(Value::Vector(ScalarType::Int, vec![0, 0]).kind(), "vector");
    }
}
