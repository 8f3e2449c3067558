"""Unit tests for the shared-memory race analyzer on hand-written kernels."""

from repro.lang import compile_source
from repro.lint import check_races


def diags(source, model):
    return check_races(compile_source(source), model)


def kinds(source, model):
    return {(d.kind, d.certainty) for d in diags(source, model)}


class TestOpenMP:
    def test_unprotected_scalar_accumulation_is_definite(self):
        src = """
        kernel sum(x: array<float>) -> float {
            let total = 0.0;
            pragma omp parallel for
            for (i in 0..len(x)) {
                total += x[i];
            }
            return total;
        }
        """
        assert ("shared-scalar-write", "definite") in kinds(src, "openmp")

    def test_reduction_clause_protects_scalar(self):
        src = """
        kernel sum(x: array<float>) -> float {
            let total = 0.0;
            pragma omp parallel for reduction(+: total)
            for (i in 0..len(x)) {
                total += x[i];
            }
            return total;
        }
        """
        assert diags(src, "openmp") == []

    def test_critical_section_protects_scalar(self):
        src = """
        kernel sum(x: array<float>) -> float {
            let total = 0.0;
            pragma omp parallel for
            for (i in 0..len(x)) {
                pragma omp critical
                {
                    total += x[i];
                }
            }
            return total;
        }
        """
        assert diags(src, "openmp") == []

    def test_atomic_protects_array_cell(self):
        src = """
        kernel hist(x: array<int>, bins: array<int>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                pragma omp atomic
                bins[x[i]] += 1;
            }
        }
        """
        assert diags(src, "openmp") == []

    def test_data_dependent_index_without_atomic_is_possible(self):
        src = """
        kernel hist(x: array<int>, bins: array<int>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                bins[x[i]] += 1;
            }
        }
        """
        assert ("unprovable-write-index", "possible") in kinds(src, "openmp")

    def test_loop_invariant_write_is_definite(self):
        src = """
        kernel bad(x: array<float>, out: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                out[0] += x[i];
            }
        }
        """
        assert ("loop-invariant-write", "definite") in kinds(src, "openmp")

    def test_inplace_stencil_is_definite(self):
        src = """
        kernel blur(x: array<float>) {
            pragma omp parallel for
            for (i in 1..len(x) - 1) {
                x[i] = (x[i - 1] + x[i + 1]) / 2.0;
            }
        }
        """
        assert ("inplace-stencil", "definite") in kinds(src, "openmp")

    def test_out_of_place_stencil_is_clean(self):
        src = """
        kernel blur(x: array<float>, y: array<float>) {
            pragma omp parallel for
            for (i in 1..len(x) - 1) {
                y[i] = (x[i - 1] + x[i + 1]) / 2.0;
            }
        }
        """
        assert diags(src, "openmp") == []

    def test_guard_demotes_definite_to_possible(self):
        src = """
        kernel first(x: array<float>, out: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                if (x[i] > 0.0) {
                    out[0] = x[i];
                }
            }
        }
        """
        got = kinds(src, "openmp")
        assert ("loop-invariant-write", "possible") in got
        assert all(c != "definite" for _, c in got)

    def test_scaled_index_is_clean_with_const_on_either_side(self):
        # regression: a[i * 2] used to fold to coefficient 0 (invariant)
        # while a[2 * i] was classified correctly
        for index in ("i * 2", "2 * i"):
            src = f"""
            kernel scatter(x: array<float>, out: array<float>) {{
                pragma omp parallel for
                for (i in 0..len(x)) {{
                    out[{index}] = x[i];
                }}
            }}
            """
            assert diags(src, "openmp") == [], index

    def test_sibling_scope_let_bindings_do_not_collide(self):
        # regression: two `let t` in sibling branches shared one
        # let_inits slot, so one branch's uses resolved through the
        # other branch's initializer
        src = """
        kernel branches(a: array<float>, n: int) {
            pragma omp parallel for
            for (i in 0..len(a)) {
                if (n > 0) {
                    let t = 0;
                    a[t] = 1.0;
                } else {
                    let t = i;
                    a[t] = 2.0;
                }
            }
        }
        """
        got = kinds(src, "openmp")
        assert all(c != "definite" for _, c in got)
        assert got, "ambiguous sibling-scope writes must still be flagged"
        # mirrored binding order: the real invariant write must not be
        # silently resolved through the other branch's `let t = i`
        mirrored = src.replace("let t = 0", "let t = X") \
                      .replace("let t = i", "let t = 0") \
                      .replace("let t = X", "let t = i")
        assert kinds(mirrored, "openmp"), \
            "invariant write behind a colliding let escaped unflagged"

    def test_loop_invariant_condition_demotes_to_possible(self):
        # a write under `if (n > 3)` never executes when n <= 3, so it
        # cannot be a definite (provable-on-every-run) conviction
        src = """
        kernel cond(a: array<float>, x: array<float>, n: int) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                if (n > 3) {
                    a[0] = x[i];
                }
            }
        }
        """
        got = kinds(src, "openmp")
        assert ("loop-invariant-write", "possible") in got
        assert all(c != "definite" for _, c in got)

    def test_literal_true_condition_keeps_definite(self):
        src = """
        kernel cond(a: array<float>, x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                if (true) {
                    a[0] = x[i];
                }
            }
        }
        """
        assert ("loop-invariant-write", "definite") in kinds(src, "openmp")

    def test_disjoint_writes_are_clean(self):
        src = """
        kernel scale(x: array<float>, a: float) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                x[i] = a * x[i];
            }
        }
        """
        assert diags(src, "openmp") == []

    def test_private_scratch_array_is_clean(self):
        src = """
        kernel work(x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                let tmp = alloc_float(4);
                tmp[0] = x[i];
                x[i] = tmp[0] + 1.0;
            }
        }
        """
        assert diags(src, "openmp") == []

    def test_race_through_helper_kernel_is_flagged(self):
        src = """
        kernel bump(out: array<float>, v: float) {
            out[0] += v;
        }
        kernel sum(x: array<float>, out: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                bump(out, x[i]);
            }
        }
        """
        assert any(d.certainty == "definite" for d in diags(src, "openmp"))

    def test_reassigned_parallel_variable_is_private_and_dependent(self):
        # the variable is private to each iteration, so assigning it is no
        # shared-scalar race; but x[i] no longer follows the iteration, and
        # the tracer does see iterations collide on x[0]
        src = """
        kernel f(x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                i = 0;
                x[i] = 1.0;
            }
        }
        """
        assert kinds(src, "openmp") == {("unprovable-write-index",
                                         "possible")}

    def test_serial_model_has_no_race_regions(self):
        src = """
        kernel sum(x: array<float>) -> float {
            let total = 0.0;
            for (i in 0..len(x)) {
                total += x[i];
            }
            return total;
        }
        """
        assert diags(src, "serial") == []


class TestKokkos:
    def test_functor_scalar_write_is_definite(self):
        src = """
        kernel sum(x: array<float>) -> float {
            let total = 0.0;
            parallel_for(len(x), (i) => {
                total += x[i];
            });
            return total;
        }
        """
        assert ("shared-scalar-write", "definite") in kinds(src, "kokkos")

    def test_parallel_reduce_is_clean(self):
        src = """
        kernel sum(x: array<float>) -> float {
            return parallel_reduce(len(x), "sum", (i) => x[i]);
        }
        """
        assert diags(src, "kokkos") == []

    def test_atomic_add_builtin_is_clean(self):
        src = """
        kernel sum(x: array<float>, out: array<float>) {
            parallel_for(len(x), (i) => {
                atomic_add(out, 0, x[i]);
            });
        }
        """
        assert diags(src, "kokkos") == []


class TestGPU:
    def test_unguarded_global_tid_accumulate_is_flagged(self):
        src = """
        kernel sum(x: array<float>, result: array<float>) {
            let i = block_idx() * block_dim() + thread_idx();
            if (i < len(x)) {
                result[0] += x[i];
            }
        }
        """
        assert any(d.analyzer == "race" for d in diags(src, "cuda"))

    def test_atomic_add_gpu_is_clean(self):
        src = """
        kernel sum(x: array<float>, result: array<float>) {
            let i = block_idx() * block_dim() + thread_idx();
            if (i < len(x)) {
                atomic_add(result, 0, x[i]);
            }
        }
        """
        assert diags(src, "cuda") == []

    def test_elementwise_gpu_is_clean(self):
        src = """
        kernel relu(x: array<float>) {
            let i = block_idx() * block_dim() + thread_idx();
            if (i < len(x)) {
                x[i] = max(x[i], 0.0);
            }
        }
        """
        assert diags(src, "hip") == []
