# Runs the lint zoo sweep `${LINT} --notes --threads=${THREADS} --json
# ${OUT}` and asserts that the JSONL it writes equals ${GOLDEN} byte for
# byte: the golden pins every finding of every severity, notes included,
# and the summary line.
file(REMOVE ${OUT})
execute_process(
  COMMAND ${LINT} --notes --threads=${THREADS} --json ${OUT}
  RESULT_VARIABLE exit_code
  OUTPUT_QUIET
  ERROR_VARIABLE err
)

if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
          "${LINT} --notes --json ${OUT}: expected exit code 0, got "
          "'${exit_code}'\nstderr: ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE differs
)
if(differs)
  file(READ ${GOLDEN} want)
  file(READ ${OUT} got)
  message(FATAL_ERROR
          "${OUT} differs from ${GOLDEN}\n--- golden\n${want}"
          "--- ${LINT}\n${got}")
endif()
