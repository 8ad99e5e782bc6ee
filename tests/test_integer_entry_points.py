import pytest

from primelattice import (
    DomainError,
    asymptotic_table,
    factorize,
    landau_bruteforce,
    landau_dp,
    partition_count,
    partitions,
    reduce_ratio,
)

# each call used to succeed on the integer a float or bool compares equal to,
# to blame a truncated value, or to end in a bare TypeError
NON_INTEGER_CALLS = {
    "factorize-float": lambda: factorize(2.0),
    "factorize-bool": lambda: factorize(True),
    "factorize-fraction": lambda: factorize(10.5),
    "reduce_ratio-float": lambda: reduce_ratio(2.0, 4),
    "reduce_ratio-bool": lambda: reduce_ratio(6, False),
    "landau_dp-float": lambda: landau_dp(5.0),
    "landau_dp-bool": lambda: landau_dp(True),
    "landau_bruteforce-float": lambda: landau_bruteforce(5.0),
    "asymptotic_table-n_max": lambda: asymptotic_table(10.0),
    "asymptotic_table-step": lambda: asymptotic_table(10, 1.0),
    "partitions-float": lambda: list(partitions(3.0)),
    "partition_count-float": lambda: partition_count(3.0),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_public_entries_reject_non_integers(call):
    with pytest.raises(DomainError, match="integer"):
        call()
