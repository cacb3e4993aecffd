//! Whole-program representation: functions, the kernel, launch geometry and
//! host-side buffer setup.
//!
//! A [`Program`] is self-contained in the same sense as a CLsmith test case:
//! it carries everything needed to compile and run it (the kernel, helper
//! functions, struct definitions, NDRange dimensions, and the initial
//! contents of every buffer argument), so the harness needs no external
//! input files.

use crate::expr::Expr;
use crate::stmt::{Block, EmiBlock, Stmt};
use crate::types::{AddressSpace, ScalarType, StructDef, StructId, Type};

/// A formal parameter of a function or kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (pointers carry their address space).
    pub ty: Type,
}

impl Param {
    /// Creates a parameter.
    pub fn new(name: impl Into<String>, ty: Type) -> Param {
        Param {
            name: name.into(),
            ty,
        }
    }
}

/// A non-kernel helper function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// Return type; `None` is `void`.
    pub ret: Option<Type>,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Whether a separate forward declaration (prototype) is emitted before
    /// all function definitions.  Figure 2(c) of the paper shows a bug that
    /// only manifests when the callee is forward-declared, so the printer
    /// and the simulated compilers need to know about prototypes.
    pub forward_declared: bool,
    /// Whether the function may be inlined by optimisation passes.
    pub noinline: bool,
}

impl FunctionDef {
    /// Creates a function definition (not forward declared, inlinable).
    pub fn new(
        name: impl Into<String>,
        ret: Option<Type>,
        params: Vec<Param>,
        body: Block,
    ) -> FunctionDef {
        FunctionDef {
            name: name.into(),
            ret,
            params,
            body,
            forward_declared: false,
            noinline: false,
        }
    }
}

/// The kernel entry point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelDef {
    /// Kernel name.
    pub name: String,
    /// Parameters (buffer pointers and scalars).
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
}

/// NDRange launch geometry: global size and work-group size per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Global sizes `N = (Nx, Ny, Nz)`.
    pub global: [usize; 3],
    /// Work-group sizes `W = (Wx, Wy, Wz)`; each must divide the matching
    /// global size, and `Wx*Wy*Wz <= 256` (§4.1).
    pub local: [usize; 3],
}

impl LaunchConfig {
    /// Maximum supported work-group size (the paper constrains generation to
    /// the minimum across all tested configurations, 256).
    pub const MAX_GROUP_SIZE: usize = 256;

    /// Creates and validates a launch configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint if a dimension is
    /// zero, a group size does not divide the global size, or the group is
    /// larger than [`Self::MAX_GROUP_SIZE`].
    pub fn new(global: [usize; 3], local: [usize; 3]) -> Result<LaunchConfig, String> {
        let cfg = LaunchConfig { global, local };
        cfg.validate()?;
        Ok(cfg)
    }

    /// A single work-group of `n` work-items in the x dimension.
    pub fn single_group(n: usize) -> LaunchConfig {
        LaunchConfig {
            global: [n, 1, 1],
            local: [n, 1, 1],
        }
    }

    /// Validates the divisibility and size constraints.
    ///
    /// # Errors
    ///
    /// See [`LaunchConfig::new`].
    pub fn validate(&self) -> Result<(), String> {
        for d in 0..3 {
            if self.global[d] == 0 || self.local[d] == 0 {
                return Err(format!("dimension {d} has zero size"));
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(format!(
                    "work-group size {} does not divide global size {} in dimension {d}",
                    self.local[d], self.global[d]
                ));
            }
        }
        if self.group_size() > Self::MAX_GROUP_SIZE {
            return Err(format!(
                "work-group size {} exceeds the maximum {}",
                self.group_size(),
                Self::MAX_GROUP_SIZE
            ));
        }
        Ok(())
    }

    /// Total number of work-items, `N_linear`.
    pub fn total_work_items(&self) -> usize {
        self.global[0] * self.global[1] * self.global[2]
    }

    /// Work-items per group, `W_linear`.
    pub fn group_size(&self) -> usize {
        self.local[0] * self.local[1] * self.local[2]
    }

    /// Number of groups per dimension.
    pub fn groups(&self) -> [usize; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Total number of work-groups.
    pub fn total_groups(&self) -> usize {
        let g = self.groups();
        g[0] * g[1] * g[2]
    }
}

/// How the host initialises a kernel buffer argument before launch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BufferInit {
    /// All elements zero.
    Zero,
    /// Element `j` holds `j` (used for the EMI `dead` array: `dead[j] = j`).
    Iota,
    /// Element `j` holds `len - 1 - j` (the "inverted" dead array used in
    /// §7.4 to check whether EMI blocks were placed at live points).
    ReverseIota,
    /// Every element holds the same value.
    Fill(i64),
    /// Explicit element data (length must match the buffer length).
    Data(Vec<i64>),
}

impl BufferInit {
    /// Materialises the initial contents for a buffer of `len` elements.
    pub fn materialize(&self, len: usize) -> Vec<i64> {
        match self {
            BufferInit::Zero => vec![0; len],
            BufferInit::Iota => (0..len as i64).collect(),
            BufferInit::ReverseIota => (0..len as i64).rev().collect(),
            BufferInit::Fill(v) => vec![*v; len],
            BufferInit::Data(d) => {
                let mut out = d.clone();
                out.resize(len, 0);
                out
            }
        }
    }
}

/// Host-side description of one kernel buffer argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufferSpec {
    /// Name of the kernel parameter this buffer binds to.
    pub param: String,
    /// Element scalar type.
    pub elem: ScalarType,
    /// Number of elements.
    pub len: usize,
    /// Initial contents.
    pub init: BufferInit,
    /// Whether the harness reads this buffer back and includes it in the
    /// result string (true for CLsmith's `out` array).
    pub is_result: bool,
}

impl BufferSpec {
    /// Creates a buffer specification that is not part of the result.
    pub fn new(
        param: impl Into<String>,
        elem: ScalarType,
        len: usize,
        init: BufferInit,
    ) -> BufferSpec {
        BufferSpec {
            param: param.into(),
            elem,
            len,
            init,
            is_result: false,
        }
    }

    /// Creates the result (output) buffer specification.
    pub fn result(param: impl Into<String>, elem: ScalarType, len: usize) -> BufferSpec {
        BufferSpec {
            param: param.into(),
            elem,
            len,
            init: BufferInit::Zero,
            is_result: true,
        }
    }
}

/// A complete, self-contained OpenCL C program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// Struct and union definitions, indexed by [`StructId`].
    pub structs: Vec<StructDef>,
    /// Helper functions (in definition order).
    pub functions: Vec<FunctionDef>,
    /// The kernel entry point.
    pub kernel: KernelDef,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Host-side buffer setup, one entry per pointer parameter of the kernel.
    pub buffers: Vec<BufferSpec>,
    /// BARRIER-mode permutation table (`d` rows of `W_linear` entries each);
    /// empty when the program does not use the barrier communication idiom.
    pub permutations: Vec<Vec<u32>>,
    /// Length of the EMI `dead` array parameter, or 0 when absent.
    pub dead_len: usize,
}

impl Program {
    /// Creates a program with no helper functions, buffers or permutations.
    pub fn new(kernel: KernelDef, launch: LaunchConfig) -> Program {
        Program {
            structs: Vec::new(),
            functions: Vec::new(),
            kernel,
            launch,
            buffers: Vec::new(),
            permutations: Vec::new(),
            dead_len: 0,
        }
    }

    /// Looks up a struct definition.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.0]
    }

    /// Adds a struct definition and returns its id.
    pub fn add_struct(&mut self, def: StructDef) -> StructId {
        self.structs.push(def);
        StructId(self.structs.len() - 1)
    }

    /// Looks up a helper function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The buffer specification bound to a kernel parameter, if any.
    pub fn buffer_for(&self, param: &str) -> Option<&BufferSpec> {
        self.buffers.iter().find(|b| b.param == param)
    }

    /// The name of the result buffer parameter (CLsmith's `out`), if any.
    pub fn result_param(&self) -> Option<&str> {
        self.buffers
            .iter()
            .find(|b| b.is_result)
            .map(|b| b.param.as_str())
    }

    /// Whether the kernel has an EMI `dead` array parameter.
    pub fn has_dead_array(&self) -> bool {
        self.dead_len > 0
    }

    /// All EMI blocks in the program (helper functions, then the kernel), in
    /// statement pre-order ([`Program::for_each_stmt`]'s order).
    pub fn emi_blocks(&self) -> Vec<&EmiBlock> {
        let mut out = Vec::new();
        self.for_each_stmt(&mut |s| {
            if let Stmt::Emi(emi) = s {
                out.push(emi);
            }
        });
        out
    }

    /// Total number of statement nodes across the kernel and all helpers.
    pub fn statement_count(&self) -> usize {
        self.kernel.body.node_count()
            + self
                .functions
                .iter()
                .map(|f| f.body.node_count())
                .sum::<usize>()
    }

    /// Calls `f` on every expression in the program (helpers, then the
    /// kernel), in [`Stmt::for_each_expr`]'s order.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.for_each_stmt(&mut |s| s.for_each_expr(false, f));
    }

    /// Calls `f` mutably on every expression in the program, in
    /// [`Stmt::for_each_expr_mut`]'s order.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        for func in &mut self.functions {
            func.body.for_each_expr_mut(f);
        }
        self.kernel.body.for_each_expr_mut(f);
    }

    /// Calls `f` on every statement in the program, pre-order.
    pub fn for_each_stmt<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for func in &self.functions {
            func.body.for_each(f);
        }
        self.kernel.body.for_each(f);
    }

    /// Calls `f` mutably on every [`Block`] in the program (helper bodies,
    /// then the kernel), in [`Block::for_each_block_mut`]'s order.
    pub fn for_each_block_mut(&mut self, f: &mut impl FnMut(&mut Block)) {
        for func in &mut self.functions {
            func.body.for_each_block_mut(f);
        }
        self.kernel.body.for_each_block_mut(f);
    }

    /// Standard kernel parameter list for CLsmith-style programs: the
    /// result buffer plus, when `dead_len > 0`, the EMI dead array.
    pub fn standard_clsmith_params(dead_len: usize) -> Vec<Param> {
        let mut params = vec![Param::new(
            "out",
            Type::Scalar(ScalarType::ULong).pointer_to(AddressSpace::Global),
        )];
        if dead_len > 0 {
            params.push(Param::new(
                "dead",
                Type::Scalar(ScalarType::Int).pointer_to(AddressSpace::Global),
            ));
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn trivial_kernel() -> KernelDef {
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(0),
            body: Block::of(vec![Stmt::assign(
                Expr::index(Expr::var("out"), Expr::int(0)),
                Expr::int(42),
            )]),
        }
    }

    #[test]
    fn launch_config_validation() {
        assert!(LaunchConfig::new([64, 2, 2], [16, 2, 2]).is_ok());
        assert!(LaunchConfig::new([64, 2, 2], [5, 2, 2]).is_err());
        assert!(LaunchConfig::new([0, 1, 1], [1, 1, 1]).is_err());
        // 8*8*8 = 512 > 256
        assert!(LaunchConfig::new([8, 8, 8], [8, 8, 8]).is_err());
        let cfg = LaunchConfig::new([64, 2, 2], [16, 2, 2]).unwrap();
        assert_eq!(cfg.total_work_items(), 256);
        assert_eq!(cfg.group_size(), 64);
        assert_eq!(cfg.groups(), [4, 1, 1]);
        assert_eq!(cfg.total_groups(), 4);
    }

    #[test]
    fn buffer_init_materialisation() {
        assert_eq!(BufferInit::Zero.materialize(3), vec![0, 0, 0]);
        assert_eq!(BufferInit::Iota.materialize(4), vec![0, 1, 2, 3]);
        assert_eq!(BufferInit::ReverseIota.materialize(4), vec![3, 2, 1, 0]);
        assert_eq!(BufferInit::Fill(7).materialize(2), vec![7, 7]);
        assert_eq!(BufferInit::Data(vec![5]).materialize(3), vec![5, 0, 0]);
    }

    #[test]
    fn program_struct_and_buffer_lookup() {
        let mut p = Program::new(trivial_kernel(), LaunchConfig::single_group(4));
        let id = p.add_struct(StructDef::new("S0", vec![]));
        assert_eq!(p.struct_def(id).name, "S0");
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));
        assert_eq!(p.result_param(), Some("out"));
        assert!(p.buffer_for("out").is_some());
        assert!(p.buffer_for("missing").is_none());
        assert!(!p.has_dead_array());
    }

    #[test]
    fn emi_block_collection_is_recursive() {
        let mut p = Program::new(trivial_kernel(), LaunchConfig::single_group(4));
        p.dead_len = 8;
        let inner = EmiBlock {
            index: 1,
            guard: (5, 2),
            body: Block::new(),
        };
        let outer = EmiBlock {
            index: 0,
            guard: (4, 1),
            body: Block::of(vec![Stmt::Emi(inner)]),
        };
        p.kernel.body.push(Stmt::Emi(outer));
        let blocks = p.emi_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].index, 0);
        assert_eq!(blocks[1].index, 1);
        assert!(p.has_dead_array());
    }

    #[test]
    fn block_mutation_visits_nested_blocks() {
        let mut p = Program::new(trivial_kernel(), LaunchConfig::single_group(4));
        p.kernel.body.push(Stmt::if_then(
            Expr::int(1),
            Block::of(vec![Stmt::Block(Block::new())]),
        ));
        let mut blocks_seen = 0;
        p.for_each_block_mut(&mut |_| blocks_seen += 1);
        // kernel body + if-then block + nested empty block
        assert_eq!(blocks_seen, 3);
    }
}
