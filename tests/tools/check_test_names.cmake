# Asserts that every test binary in ${TESTS} (a "|"-separated list) lists
# the same tests, byte for byte, in two processes. gtest prints each
# parameter into its test's name, as the raw bytes of the parameter struct
# unless the struct has a PrintTo; a pointer or padding byte among them
# takes a new value in every process (address-space randomization, stack
# contents), so ctest -N would differ between two build trees of one
# commit. The second listing runs with a longer environment, which moves
# the stack, so padding copied from it changes too. A parameter struct
# holds its name inline and fills its last byte, or has a PrintTo.
cmake_policy(SET CMP0007 NEW)  # keep empty lines when comparing listings

string(REPLACE "|" ";" binaries "${TESTS}")
if(NOT binaries)
  message(FATAL_ERROR "no test binaries given")
endif()

string(REPEAT "x" 4096 padding)
set(violations "")
foreach(bin ${binaries})
  execute_process(COMMAND ${bin} --gtest_list_tests
                  OUTPUT_VARIABLE first RESULT_VARIABLE rc1)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env
                          FLOPSIM_TEST_NAME_CHECK=${padding}
                          ${bin} --gtest_list_tests
                  OUTPUT_VARIABLE second RESULT_VARIABLE rc2)
  get_filename_component(name ${bin} NAME)
  if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
    string(APPEND violations "\n  ${name}: --gtest_list_tests failed")
    continue()
  endif()
  if(NOT first STREQUAL second)
    # Name the first line that differs.
    string(REPLACE "\n" ";" lines1 "${first}")
    string(REPLACE "\n" ";" lines2 "${second}")
    list(LENGTH lines1 count)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      list(GET lines1 ${i} l1)
      list(GET lines2 ${i} l2)
      if(NOT l1 STREQUAL l2)
        string(STRIP "${l1}" l1)
        string(APPEND violations "\n  ${name}: ${l1}")
        break()
      endif()
    endforeach()
  endif()
endforeach()

if(violations)
  message(FATAL_ERROR
          "test names differ between two listings (print the parameter "
          "with PrintTo, or hold its name inline with no padding):"
          "${violations}")
endif()
