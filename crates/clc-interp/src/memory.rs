//! The cell-based memory model.
//!
//! Each allocated object (a variable, a kernel buffer, the permutation
//! table, ...) occupies a contiguous run of *cells*, where one cell holds one
//! scalar or one pointer.  Aggregates are flattened using
//! [`Type::cell_count`] and [`Type::field_offset`], which keeps layout simple
//! and byte-order-free; the byte-level struct padding bugs the paper
//! describes (Figure 1(a), Figure 2(a)) are modelled as AST transformations
//! in the simulated compilers rather than as layout differences here.

use crate::error::RuntimeError;
use crate::value::{Cell, ObjId, PointerValue, Scalar};
use clc::{AddressSpace, ScalarType, StructDef, Type};
use std::cell::RefCell;

/// An allocated object.
#[derive(Debug, Clone)]
pub struct Object {
    /// Name used in diagnostics (variable or buffer name).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Address space.
    pub space: AddressSpace,
    /// Flattened storage.
    pub cells: Vec<Cell>,
    /// Whether the object is live.  A freed object's slot is reused by a
    /// later allocation under the next generation, so a dangling pointer
    /// fails on every access rather than reading the slot's new object.
    pub live: bool,
    /// The generation this object holds its slot under (see [`ObjId`]).
    generation: u32,
    /// The last tracking epoch in which this object was allocated or
    /// touched (see [`Memory::begin_tracking`]).
    touched: std::cell::Cell<u32>,
}

/// The object store for one kernel launch.
#[derive(Debug, Default)]
pub struct Memory {
    objects: Vec<Object>,
    /// Slots of freed objects, reused (under their next generation) by
    /// later allocations.
    free_list: Vec<u32>,
    /// Cell buffers recovered from freed objects, reused by later
    /// allocations.  Loop bodies declare (and scope-exit free) the same
    /// variables every iteration, so without this pool the interpreter
    /// re-allocates identical `Vec<Cell>`s millions of times per launch.
    spare_cells: Vec<Vec<Cell>>,
    /// Total objects allocated over this memory's lifetime (slot reuse
    /// included).  Diagnostic: the register file shows up here as loop
    /// temporaries no longer churning the object table.
    allocations: u64,
    /// The open tracking epoch, 0 when nothing is tracked.
    tracking: u32,
    /// The last epoch handed out.
    epochs: u32,
    /// What the open epoch has logged so far.
    log: RefCell<TouchLog>,
}

/// What a tracking epoch logs (see [`Memory::begin_tracking`]).
#[derive(Debug, Default)]
pub(crate) struct TouchLog {
    /// Objects that existed when the epoch began and were touched in it, in
    /// first-touch order, each with the range of `cells` holding its cells
    /// as they were just before that first touch.
    pub(crate) touched: Vec<(ObjId, std::ops::Range<usize>)>,
    pub(crate) cells: Vec<Cell>,
    /// Objects allocated in the epoch, in allocation order.
    pub(crate) created: Vec<ObjId>,
}

/// Generations from this one up are never handed out, so an [`ObjId`]
/// with one of them names no object: the bytecode tier's segment memo
/// uses them to tag the ids it stores relative to a work-item.
pub(crate) const RESERVED_GENERATIONS: u32 = u32::MAX - 1;

/// Cap on pooled cell buffers: enough for every per-iteration declaration
/// of a deeply nested kernel, while one huge freed buffer set cannot pin
/// unbounded memory for the rest of the launch.
const SPARE_CELL_BUFFERS: usize = 64;

impl Memory {
    /// Creates an empty store.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// A cell buffer of `count` copies of `fill`, reusing a pooled
    /// allocation when one is available.
    fn filled_cells(&mut self, count: usize, fill: Cell) -> Vec<Cell> {
        match self.spare_cells.pop() {
            Some(mut cells) => {
                cells.clear();
                cells.resize(count, fill);
                cells
            }
            None => vec![fill; count],
        }
    }

    /// Allocates an object of `ty`, uninitialised.
    pub fn alloc(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        space: AddressSpace,
        structs: &[StructDef],
    ) -> ObjId {
        let cells = self.filled_cells(ty.cell_count(structs), Cell::Uninit);
        self.alloc_with_cells(name, ty, space, cells)
    }

    /// Allocates an object of `ty` with every cell zeroed.
    pub fn alloc_zeroed(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        space: AddressSpace,
        structs: &[StructDef],
    ) -> ObjId {
        let cells = self.filled_cells(ty.cell_count(structs), Cell::Bits(0));
        self.alloc_with_cells(name, ty, space, cells)
    }

    /// Allocates an object with explicit cell contents.
    pub fn alloc_with_cells(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        space: AddressSpace,
        cells: Vec<Cell>,
    ) -> ObjId {
        let mut object = Object {
            name: name.into(),
            ty,
            space,
            cells,
            live: true,
            generation: 0,
            touched: std::cell::Cell::new(self.tracking),
        };
        self.allocations += 1;
        let id = if let Some(slot) = self.free_list.pop() {
            let entry = &mut self.objects[slot as usize];
            object.generation = entry.generation + 1;
            *entry = object;
            ObjId {
                slot,
                generation: entry.generation,
            }
        } else {
            let slot = u32::try_from(self.objects.len()).expect("object table exceeds u32 slots");
            self.objects.push(object);
            ObjId {
                slot,
                generation: 0,
            }
        };
        if self.tracking != 0 {
            self.log.get_mut().created.push(id);
        }
        id
    }

    /// Allocates an object holding a copy of `cells`, reusing a pooled
    /// buffer when one is available.
    pub(crate) fn alloc_copy(
        &mut self,
        name: &str,
        ty: &Type,
        space: AddressSpace,
        cells: &[Cell],
    ) -> ObjId {
        let mut buffer = self.spare_cells.pop().unwrap_or_default();
        buffer.clear();
        buffer.extend_from_slice(cells);
        self.alloc_with_cells(name, ty.clone(), space, buffer)
    }

    /// Marks an object as dead, recycling both its slot and (up to the pool
    /// cap) its cell storage.  Freeing a dead object does nothing.  A slot
    /// whose generations are used up is retired instead of recycled, so no
    /// id can ever name a later object.
    pub fn free(&mut self, id: ObjId) {
        if let Some(obj) = self.objects.get_mut(id.slot as usize) {
            if obj.live && obj.generation == id.generation {
                obj.live = false;
                let mut cells = std::mem::take(&mut obj.cells);
                if cells.capacity() > 0 && self.spare_cells.len() < SPARE_CELL_BUFFERS {
                    cells.clear();
                    self.spare_cells.push(cells);
                }
                if obj.generation + 1 < RESERVED_GENERATIONS {
                    self.free_list.push(id.slot);
                }
            }
        }
    }

    /// Opens a tracking epoch: from now until [`Memory::end_tracking`],
    /// every access to an object that exists now logs, on the object's
    /// first touch, a copy of its cells as they were before it, and every
    /// allocation logs the new object.  Returns false, opening nothing,
    /// once the epochs are used up.
    pub(crate) fn begin_tracking(&mut self) -> bool {
        debug_assert_eq!(self.tracking, 0, "nested tracking epochs");
        let Some(epoch) = self.epochs.checked_add(1) else {
            return false;
        };
        self.epochs = epoch;
        self.tracking = epoch;
        let log = self.log.get_mut();
        log.touched.clear();
        log.cells.clear();
        log.created.clear();
        true
    }

    /// Closes the tracking epoch; its log stays readable through
    /// [`Memory::touch_log`] until the next one begins.
    pub(crate) fn end_tracking(&mut self) {
        self.tracking = 0;
    }

    /// Suspends the tracking epoch (for accesses that are not the tracked
    /// code's own) and returns what [`Memory::resume_tracking`] takes.
    pub(crate) fn pause_tracking(&mut self) -> u32 {
        std::mem::take(&mut self.tracking)
    }

    pub(crate) fn resume_tracking(&mut self, epoch: u32) {
        self.tracking = epoch;
    }

    /// The log of the last tracking epoch.
    pub(crate) fn touch_log(&self) -> std::cell::Ref<'_, TouchLog> {
        self.log.borrow()
    }

    /// Logs the first touch of `object` in the open epoch.
    #[cold]
    fn touch(&self, id: ObjId, object: &Object) {
        object.touched.set(self.tracking);
        let mut log = self.log.borrow_mut();
        let start = log.cells.len();
        log.cells.extend_from_slice(&object.cells);
        let end = log.cells.len();
        log.touched.push((id, start..end));
    }

    /// Total objects ever allocated by this memory (diagnostics).
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Accesses an object, failing if it has been freed.
    ///
    /// The error does not name the freed object: its slot may hold another
    /// object by now, and which slots get reused depends on the execution
    /// tier, so no name read from the slot would be the same on both.
    pub fn object(&self, id: ObjId) -> Result<&Object, RuntimeError> {
        match self.objects.get(id.slot as usize) {
            Some(o) if o.live && o.generation == id.generation => {
                if self.tracking != 0 && o.touched.get() != self.tracking {
                    self.touch(id, o);
                }
                Ok(o)
            }
            Some(_) => Err(freed_object()),
            None => Err(bad_object(id)),
        }
    }

    pub(crate) fn object_mut(&mut self, id: ObjId) -> Result<&mut Object, RuntimeError> {
        if self.tracking != 0 {
            // Logs the first touch before the caller writes.
            self.object(id)?;
        }
        match self.objects.get_mut(id.slot as usize) {
            Some(o) if o.live && o.generation == id.generation => Ok(o),
            Some(_) => Err(freed_object()),
            None => Err(bad_object(id)),
        }
    }

    /// Reads one raw cell.
    pub fn read_cell(&self, id: ObjId, offset: usize) -> Result<Cell, RuntimeError> {
        let obj = self.object(id)?;
        match obj.cells.get(offset) {
            Some(c) => Ok(c.clone()),
            None => Err(RuntimeError::InvalidAccess {
                detail: format!(
                    "offset {offset} out of bounds for `{}` ({} cells)",
                    obj.name,
                    obj.cells.len()
                ),
            }),
        }
    }

    /// Reads a scalar of type `ty` from a cell.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds offsets, reads of uninitialised cells and
    /// reads of pointer cells at scalar type.
    pub fn read_scalar(
        &self,
        id: ObjId,
        offset: usize,
        ty: ScalarType,
    ) -> Result<Scalar, RuntimeError> {
        let obj = self.object(id)?;
        match obj.cells.get(offset) {
            Some(Cell::Bits(bits)) => Ok(Scalar::from_bits(*bits, ty)),
            Some(Cell::Uninit) => Err(RuntimeError::UninitializedRead {
                object: obj.name.clone(),
            }),
            Some(Cell::Ptr(_)) => Err(RuntimeError::TypeMismatch {
                detail: format!("reading pointer cell of `{}` as scalar", obj.name),
            }),
            None => Err(RuntimeError::InvalidAccess {
                detail: format!("offset {offset} out of bounds for `{}`", obj.name),
            }),
        }
    }

    /// Reads a pointer from a cell.
    pub fn read_pointer(&self, id: ObjId, offset: usize) -> Result<PointerValue, RuntimeError> {
        let obj = self.object(id)?;
        match obj.cells.get(offset) {
            Some(Cell::Ptr(p)) => Ok(p.clone()),
            Some(Cell::Uninit) => Err(RuntimeError::UninitializedRead {
                object: obj.name.clone(),
            }),
            Some(Cell::Bits(_)) => Err(RuntimeError::TypeMismatch {
                detail: format!("reading scalar cell of `{}` as pointer", obj.name),
            }),
            None => Err(RuntimeError::InvalidAccess {
                detail: format!("offset {offset} out of bounds for `{}`", obj.name),
            }),
        }
    }

    /// Writes one raw cell.
    pub fn write_cell(&mut self, id: ObjId, offset: usize, cell: Cell) -> Result<(), RuntimeError> {
        let obj = self.object_mut(id)?;
        match obj.cells.get_mut(offset) {
            Some(slot) => {
                *slot = cell;
                Ok(())
            }
            None => Err(RuntimeError::InvalidAccess {
                detail: format!(
                    "offset {offset} out of bounds for `{}` ({} cells)",
                    obj.name,
                    obj.cells.len()
                ),
            }),
        }
    }

    /// Writes a scalar value, masked to `ty`, into a cell.
    pub fn write_scalar(
        &mut self,
        id: ObjId,
        offset: usize,
        value: Scalar,
        ty: ScalarType,
    ) -> Result<(), RuntimeError> {
        self.write_cell(id, offset, Cell::Bits(value.convert(ty).bits))
    }

    /// Reads `count` cells as a vector of cells (used to build aggregate
    /// rvalues).
    pub fn read_cells(
        &self,
        id: ObjId,
        offset: usize,
        count: usize,
    ) -> Result<Vec<Cell>, RuntimeError> {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(self.read_cell(id, offset + i)?);
        }
        Ok(out)
    }

    /// Writes a slice of cells starting at `offset`.
    pub fn write_cells(
        &mut self,
        id: ObjId,
        offset: usize,
        cells: &[Cell],
    ) -> Result<(), RuntimeError> {
        for (i, cell) in cells.iter().enumerate() {
            self.write_cell(id, offset + i, cell.clone())?;
        }
        Ok(())
    }
}

fn freed_object() -> RuntimeError {
    RuntimeError::InvalidAccess {
        detail: "use of a freed object".into(),
    }
}

fn bad_object(id: ObjId) -> RuntimeError {
    RuntimeError::InvalidAccess {
        detail: format!("bad object id {}", id.slot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::ScalarType;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut m = Memory::new();
        let id = m.alloc_zeroed(
            "x",
            Type::Scalar(ScalarType::Int),
            AddressSpace::Private,
            &[],
        );
        assert_eq!(m.read_scalar(id, 0, ScalarType::Int).unwrap().as_i64(), 0);
        m.write_scalar(
            id,
            0,
            Scalar::from_i128(-7, ScalarType::Int),
            ScalarType::Int,
        )
        .unwrap();
        assert_eq!(m.read_scalar(id, 0, ScalarType::Int).unwrap().as_i64(), -7);
    }

    #[test]
    fn uninitialised_reads_are_errors() {
        let mut m = Memory::new();
        let id = m.alloc(
            "x",
            Type::Scalar(ScalarType::Int),
            AddressSpace::Private,
            &[],
        );
        assert!(matches!(
            m.read_scalar(id, 0, ScalarType::Int),
            Err(RuntimeError::UninitializedRead { .. })
        ));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut m = Memory::new();
        let id = m.alloc_zeroed(
            "a",
            Type::Scalar(ScalarType::Int).array_of(4),
            AddressSpace::Private,
            &[],
        );
        assert!(m.read_scalar(id, 3, ScalarType::Int).is_ok());
        assert!(m.read_scalar(id, 4, ScalarType::Int).is_err());
        assert!(m
            .write_scalar(id, 9, Scalar::zero(ScalarType::Int), ScalarType::Int)
            .is_err());
    }

    #[test]
    fn freed_objects_are_detected_and_reused() {
        let mut m = Memory::new();
        let a = m.alloc_zeroed(
            "a",
            Type::Scalar(ScalarType::Int),
            AddressSpace::Private,
            &[],
        );
        m.free(a);
        assert!(m.read_scalar(a, 0, ScalarType::Int).is_err());
        let b = m.alloc_zeroed(
            "b",
            Type::Scalar(ScalarType::Int),
            AddressSpace::Private,
            &[],
        );
        // The slot is recycled, and `a` still fails now that `b` holds it.
        assert_eq!(a.slot, b.slot);
        assert!(m.read_scalar(a, 0, ScalarType::Int).is_err());
        assert_eq!(m.objects.iter().filter(|o| o.live).count(), 1);
    }

    #[test]
    fn scalar_writes_convert_to_declared_type() {
        let mut m = Memory::new();
        let id = m.alloc_zeroed(
            "c",
            Type::Scalar(ScalarType::UChar),
            AddressSpace::Private,
            &[],
        );
        m.write_scalar(
            id,
            0,
            Scalar::from_i128(300, ScalarType::Int),
            ScalarType::UChar,
        )
        .unwrap();
        assert_eq!(
            m.read_scalar(id, 0, ScalarType::UChar).unwrap().as_u64(),
            44
        );
    }
}
