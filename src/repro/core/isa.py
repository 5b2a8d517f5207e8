"""The Hotline accelerator's instruction set — Table I of the paper.

| Instruction    | Operand 1      | Operand 2     | Description                       |
|----------------|----------------|---------------|-----------------------------------|
| dmard(op1,op2) | mem start idx  | # bytes       | DMA read request                  |
| dmawr(op1,op2) | mem start idx  | # bytes       | DMA write request                 |
| v_add(op1,op2) | input vector   | emb vec buff  | element-wise addition             |
| v_mul(op1,op2) | input vector   | emb vec buff  | element-wise dot product          |
| s_wr(op1,op2)  | reg idx        | base addr     | write embedding base address      |
| gpu_rd(op1,op2)| gpu device id  | sparse idx    | read embedding idx from GPU device|

The :class:`InstructionDriver` builds instruction streams for a µ-batch and
the :class:`AcceleratorInterpreter` executes them functionally against
in-memory embedding stores, which is how the unit tests validate that the
gather/reduce path produces exactly the vectors the model expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.hotset import HotSetIndex


class Opcode(Enum):
    """The six operations the accelerator driver can issue."""

    DMA_READ = "dmard"
    DMA_WRITE = "dmawr"
    VECTOR_ADD = "v_add"
    VECTOR_MUL = "v_mul"
    SCALAR_WRITE = "s_wr"
    GPU_READ = "gpu_rd"


@dataclass(frozen=True)
class Instruction:
    """One accelerator instruction.

    Attributes:
        opcode: Operation.
        operand1: First operand (memory start index, register id, or GPU id).
        operand2: Second operand (#bytes, buffer id, base address, or row).
        table: Optional embedding-table annotation used by the functional
            interpreter (hardware encodes this in the address).
    """

    opcode: Opcode
    operand1: int
    operand2: int
    table: int = -1


class InstructionDriver:
    """Builds instruction streams for embedding gather + reduce operations."""

    def __init__(self, row_bytes: int):
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        self.row_bytes = row_bytes

    def set_base_address(self, register: int, base_address: int) -> Instruction:
        """``s_wr``: record a table's base address in an address register."""
        return Instruction(Opcode.SCALAR_WRITE, operand1=register, operand2=base_address)

    def gather_row_from_cpu(self, table: int, row: int, base_address: int = 0) -> Instruction:
        """``dmard``: fetch one embedding row from CPU DRAM."""
        return Instruction(
            Opcode.DMA_READ,
            operand1=base_address + row * self.row_bytes,
            operand2=self.row_bytes,
            table=table,
        )

    def gather_row_from_gpu(self, gpu_id: int, table: int, row: int) -> Instruction:
        """``gpu_rd``: fetch one popular embedding row from a GPU replica."""
        return Instruction(Opcode.GPU_READ, operand1=gpu_id, operand2=row, table=table)

    def reduce_add(self, input_vector: int, buffer_slot: int) -> Instruction:
        """``v_add``: accumulate a fetched row into the embedding vector buffer."""
        return Instruction(Opcode.VECTOR_ADD, operand1=input_vector, operand2=buffer_slot)

    def writeback_row_to_cpu(self, table: int, row: int, base_address: int = 0) -> Instruction:
        """``dmawr``: write an updated non-popular row back to CPU DRAM."""
        return Instruction(
            Opcode.DMA_WRITE,
            operand1=base_address + row * self.row_bytes,
            operand2=self.row_bytes,
            table=table,
        )

    def pooled_gather_program(
        self,
        sample_indices: list[np.ndarray],
        table: int,
        hot_rows: np.ndarray,
        gpu_id: int = 0,
    ) -> list[Instruction]:
        """Instruction stream that pools one table's rows for each sample.

        For each sample the program gathers every looked-up row (from the
        GPU if popular, from CPU DRAM otherwise) and accumulates it into the
        sample's slot of the embedding vector buffer.
        """
        index = HotSetIndex([hot_rows])
        program: list[Instruction] = []
        for slot, rows in enumerate(sample_indices):
            hot_mask = index.contains(0, np.asarray(rows, dtype=np.int64))
            for row, is_hot in zip(rows, hot_mask, strict=True):
                row = int(row)
                if is_hot:
                    program.append(self.gather_row_from_gpu(gpu_id, table, row))
                else:
                    program.append(self.gather_row_from_cpu(table, row))
                program.append(self.reduce_add(input_vector=row, buffer_slot=slot))
        return program


class AcceleratorInterpreter:
    """Functional executor of instruction streams against embedding stores.

    ``cpu_tables`` and ``gpu_tables`` map table id -> weight matrix.  The GPU
    store may contain only the popular rows (a replica); reads of rows not
    present there raise, which is exactly the invariant the dispatcher must
    maintain.  The embedding vector buffer and every fetched row take the
    CPU tables' dtype, so a pooled float32 row equals the model's own
    ``EmbeddingBag`` pooling bit for bit.
    """

    def __init__(
        self,
        cpu_tables: dict[int, np.ndarray],
        gpu_tables: dict[int, np.ndarray] | None = None,
        row_bytes: int | None = None,
    ):
        self.cpu_tables = cpu_tables
        self.gpu_tables = gpu_tables or {}
        first = next(iter(cpu_tables.values()))
        self.dim = first.shape[1]
        self.dtype = first.dtype
        self.row_bytes = row_bytes or self.dim * first.itemsize
        self.base_registers: dict[int, int] = {}
        self.last_fetched: np.ndarray | None = None

    def execute(self, program: list[Instruction], num_buffer_slots: int) -> np.ndarray:
        """Run a program and return the embedding vector buffer contents."""
        buffer = np.zeros((num_buffer_slots, self.dim), dtype=self.dtype)
        for instruction in program:
            self._execute_one(instruction, buffer)
        return buffer

    def _execute_one(self, instruction: Instruction, buffer: np.ndarray) -> None:
        opcode = instruction.opcode
        if opcode == Opcode.SCALAR_WRITE:
            self.base_registers[instruction.operand1] = instruction.operand2
        elif opcode == Opcode.DMA_READ:
            row = instruction.operand1 // self.row_bytes
            table = instruction.table
            self.last_fetched = self.cpu_tables[table][row].astype(self.dtype)
        elif opcode == Opcode.GPU_READ:
            table = instruction.table
            row = instruction.operand2
            gpu_table = self.gpu_tables.get(table)
            if gpu_table is None or row >= gpu_table.shape[0]:
                raise KeyError(
                    f"gpu_rd of table {table} row {row}: row is not replicated on the GPU"
                )
            self.last_fetched = gpu_table[row].astype(self.dtype)
        elif opcode == Opcode.VECTOR_ADD:
            if self.last_fetched is None:
                raise RuntimeError("v_add issued before any row was fetched")
            buffer[instruction.operand2] += self.last_fetched
        elif opcode == Opcode.VECTOR_MUL:
            if self.last_fetched is None:
                raise RuntimeError("v_mul issued before any row was fetched")
            buffer[instruction.operand2] *= self.last_fetched
        elif opcode == Opcode.DMA_WRITE:
            row = instruction.operand1 // self.row_bytes
            table = instruction.table
            if self.last_fetched is None:
                raise RuntimeError("dmawr issued before any row was fetched")
            self.cpu_tables[table][row] = self.last_fetched
        else:  # pragma: no cover - exhaustive over the enum
            raise ValueError(f"unknown opcode {opcode}")
