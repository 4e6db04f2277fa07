"""The expression layer states each construct in several tables: the
function names the parser accepts, the kernels that evaluate each
operation, the rules that differentiate it and the printer's symbols.  A
construct added to one table only must fail here, not as a TypeError when a
tape is compiled or a derivative taken."""

from minimaxcert.expressions import (
    _FUNCTION_RULES,
    _INFIX,
    _KERNELS,
    _RULES,
    FUNCTION_NAMES,
    Func,
    Neg,
    Var,
    _op_of,
)


def test_every_construct_has_a_kernel_pair_a_rule_and_a_printing():
    functions = {key for key in _KERNELS if isinstance(key, str)}
    assert set(FUNCTION_NAMES) == functions == _FUNCTION_RULES.keys()
    node_types = {key for key in _KERNELS if isinstance(key, type)}
    assert _RULES.keys() - {Func} == node_types == _INFIX.keys() | {Neg}
    assert all(len(pair) == 2 and all(map(callable, pair)) for pair in _KERNELS.values())


def test_kernel_pairs_agree_inside_their_domains():
    x, y = Var("x", 0), Var("y", 0)
    for key in _KERNELS:
        if isinstance(key, str):
            node = Func(key, x)
        else:
            node = key(x) if key is Neg else key(x, y)
        array_value = _op_of(node)(0.5, 0.25)
        float_value = _op_of(node, floats=True)(0.5, 0.25)
        assert type(float_value) is float, key
        assert float(array_value) == float_value, key
