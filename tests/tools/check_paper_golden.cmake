# Runs the paper bench ${BENCH} with `--csv ${OUT_DIR}` into a fresh
# directory and asserts that it writes exactly the CSVs in ${GOLDEN_DIR},
# each byte for byte: the goldens pin every cell of the paper's tables
# and figures.
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(
  COMMAND ${BENCH} --csv ${OUT_DIR}
  RESULT_VARIABLE exit_code
  OUTPUT_QUIET
  ERROR_VARIABLE err
)

if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} --csv ${OUT_DIR}: expected exit code 0, got "
          "'${exit_code}'\nstderr: ${err}")
endif()

file(GLOB golden RELATIVE ${GOLDEN_DIR} ${GOLDEN_DIR}/*.csv)
file(GLOB written RELATIVE ${OUT_DIR} ${OUT_DIR}/*.csv)
list(SORT golden)
list(SORT written)
if(NOT golden)
  message(FATAL_ERROR "no golden CSVs in ${GOLDEN_DIR}")
endif()
if(NOT written STREQUAL golden)
  message(FATAL_ERROR
          "${BENCH} wrote [${written}]\nthe goldens are [${golden}]")
endif()

foreach(csv ${golden})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${GOLDEN_DIR}/${csv} ${OUT_DIR}/${csv}
    RESULT_VARIABLE differs
  )
  if(differs)
    file(READ ${GOLDEN_DIR}/${csv} want)
    file(READ ${OUT_DIR}/${csv} got)
    message(FATAL_ERROR
            "${csv} differs from its golden\n--- golden\n${want}"
            "--- ${BENCH}\n${got}")
  endif()
endforeach()
